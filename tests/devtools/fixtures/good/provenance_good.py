"""REP003 known-good: a complete provenance chain in miniature.

Mirrors the real shape: a ``SimulationConfig``, its serializer's
provenance block, the ``ResultRow`` JSON round-trip, the reproducer, and
the identity/telemetry declarations — with every field covered.
"""

import dataclasses

NON_PROVENANCE_CONFIG_FIELDS = ("attacker",)
SIMULATION_PARAMETER_NAMES = ("rounds", "chunk_workers")
TELEMETRY_ROW_FIELDS = ("chunk_workers",)
WALL_CLOCK_METRICS = ("perf:elapsed_seconds",)


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    seed: int = 0
    mode: str = "batch"
    attacker: object = None


@dataclasses.dataclass(frozen=True)
class ResultRow:
    seed: int
    mode: str
    chunk_workers: int


def simulation_result_to_dict(result):
    return {
        "provenance": {
            "seed": result.seed,
            "mode": result.mode,
            "rounds": result.rounds,
            "chunk_workers": result.chunk_workers,
        },
    }


def result_row_to_dict(row):
    return {
        "seed": row.seed,
        "mode": row.mode,
        "chunk_workers": row.chunk_workers,
    }


def result_row_from_dict(payload):
    return ResultRow(
        seed=payload["seed"],
        mode=payload["mode"],
        chunk_workers=payload["chunk_workers"],
    )


def reproduce_row(row, simulate):
    return simulate(seed=row.seed, mode=row.mode)
