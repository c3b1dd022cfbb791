"""REP003 known-bad: provenance holes across the chain.

* ``SimulationConfig.new_knob`` is serialized nowhere and not declared
  in ``NON_PROVENANCE_CONFIG_FIELDS``;
* ``ResultRow.rounds`` is dropped by both sides of the JSON round-trip
  and is neither consumed by ``reproduce_row`` nor declared telemetry;
* ``SIMULATION_PARAMETER_NAMES`` has an entry missing from provenance.
"""

import dataclasses

NON_PROVENANCE_CONFIG_FIELDS = ("attacker",)
SIMULATION_PARAMETER_NAMES = ("rounds", "ghost_param")
TELEMETRY_ROW_FIELDS = ()


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    seed: int = 0
    mode: str = "batch"
    attacker: object = None
    new_knob: float = 1.0


@dataclasses.dataclass(frozen=True)
class ResultRow:
    seed: int
    mode: str
    rounds: int


def simulation_result_to_dict(result):
    return {
        "provenance": {
            "seed": result.seed,
            "mode": result.mode,
            "rounds": result.rounds,
        },
    }


def result_row_to_dict(row):
    return {
        "seed": row.seed,
        "mode": row.mode,
    }


def result_row_from_dict(payload):
    return ResultRow(
        seed=payload["seed"],
        mode=payload["mode"],
    )


def reproduce_row(row, simulate):
    return simulate(seed=row.seed, mode=row.mode)
