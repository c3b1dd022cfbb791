#!/usr/bin/env python3
"""Quickstart for the declarative experiment API: a 3-parameter grid.

Sweeps a password-policy grid — accounts to remember × expiry × single
sign-on — through ``repro.experiments`` end to end:

1. declare the grid (``SweepSpec``) over the registered ``passwords``
   scenario's typed parameters,
2. run every variant through the batch engine with per-variant seeded
   RNG streams (``Experiment.run``; pass ``backend=ProcessBackend()``
   to fan the grid out over the local process pool, or see
   ``examples/sharded_sweep.py`` for splitting it across hosts),
3. compare variants and pick the best one from the ``ResultSet``, and
4. export the results — with full parameter/seed provenance — via
   ``repro.io``, then reproduce one row exactly from that provenance.

Run with::

    PYTHONPATH=src python examples/sweep_quickstart.py
"""

from __future__ import annotations

import os
import tempfile

from repro.experiments import Experiment, SweepSpec, reproduce_row
from repro.io import load_resultset


def main() -> None:
    sweep = SweepSpec(
        scenario="passwords",
        grid={
            "distinct_accounts": [4, 8, 16],
            "expiry_days": [None, 90],
            "single_sign_on": [False, True],
        },
    )
    experiment = Experiment.from_sweep(
        "password-burden-quickstart",
        sweep,
        n_receivers=400,
        seed=7,
        task="recall-passwords",
    )
    print(f"grid: {sweep.size} variants over axes {list(sweep.grid)}")
    results = experiment.run()

    print()
    print(results.to_markdown(["protection_rate", "capability_failure_rate"]))

    best = results.best("protection_rate")
    print()
    print(
        f"best variant: {best.variant} — protection {best.metric('protection_rate'):.1%} "
        f"(seed {best.seed}, mode {best.mode})"
    )

    # Export with provenance, read it back, and reproduce one row exactly.
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as directory:
        path = os.path.join(directory, "results.json")
        results.save(path)
        reloaded = load_resultset(path)
    rerun = reproduce_row(reloaded.row(best.variant))
    assert rerun.protection_rate() == best.metric("protection_rate")
    print(
        f"exported {len(reloaded)} rows (JSON round-trip); best row reproduced exactly"
    )


if __name__ == "__main__":
    main()
