"""Time one engine set-up in a fresh interpreter and print it in seconds.

Set-up runs from the first import to the end of the first warm-up
``simulate_task`` call, so it includes importing numpy and ``repro``,
building the scenario and the first call's lazy work.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import time

started = time.perf_counter()

import sys  # noqa: E402

from engine_load import prepare  # noqa: E402

prepare(sys.argv[1])(int(sys.argv[2]))
print(time.perf_counter() - started)
