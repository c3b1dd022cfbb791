"""Start the service with span wrappers installed, for the traced run.

Installs the benchmark's wrappers (engine and service layers), then runs
``repro.service.cli.main`` exactly as ``python -m repro.service serve``
does, on a free loopback port.  When the server stops (SIGINT), every
recorded span is written to ``--spans``.

``--busy-ms`` makes every request spin for that long before it is
served: a known slowdown, used by ``selftest.py`` to show that the
calibrated timings follow a slower program.

    PYTHONPATH=src python3 perfbench/launcher.py --data-dir DIR --spans FILE
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any

from spans import ENGINE_TARGETS, SERVICE_TARGETS, SpanRecorder


def spin_before_serving(seconds: float) -> None:
    from repro.service.app import ServiceApp

    serve = ServiceApp.__call__

    def slowed(app: Any, *args: Any) -> Any:
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            pass
        return serve(app, *args)

    ServiceApp.__call__ = slowed  # type: ignore[method-assign]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--busy-ms", type=float, default=0.0)
    args = parser.parse_args()

    from repro.service import cli

    recorder = SpanRecorder()
    missing = recorder.install(ENGINE_TARGETS + SERVICE_TARGETS)
    if missing:
        print(f"launcher: not wrapped (name not found): {missing}", file=sys.stderr)
    if args.busy_ms:
        spin_before_serving(args.busy_ms / 1000.0)
    try:
        return cli.main(["serve", "--host", "127.0.0.1", "--port", "0",
                         "--data-dir", args.data_dir])
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    raise SystemExit(main())
