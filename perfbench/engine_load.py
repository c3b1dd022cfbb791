"""Engine workloads: repeated ``HumanLoopSimulator.simulate_task`` calls.

Both workloads run the antiphishing scenario at 100,000 receivers under
the engine defaults (counter streams, default ``batch_size`` and
``chunk_workers``), so a PR that changes a default shows up here.  Every
call gets a fresh seed drawn from the workload seed; every eighth call
repeats the first call's seed instead, and must reproduce its canonical
result exactly.

The output checks do not compare against recorded bits, so a new draw
layout still passes.  Each result must satisfy the tally invariants, and
its protection rate must lie within ``TOLERANCE_SIGMAS`` binomial
standard deviations of the seed commit's mean over 40 seeds (1000-1039).
The binomial count is the number of receivers, not receiver-rounds: a
receiver's mean over correlated rounds has at most the variance of one
Bernoulli draw, so this bound is conservative for multi-round runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from calibration import Sample, kernel_s
from spans import ENGINE_TARGETS, SpanRecorder

ENGINE_WORKLOADS: Dict[str, Dict[str, Any]] = {
    "engine_single": {
        "scenario": "antiphishing",
        "task": "heed-ie_active-warning",
        "n_receivers": 100_000,
        "rounds": 1,
        "recovery_rate": 0.0,
        "reference_protection_rate": 0.70044625,
    },
    "engine_rounds": {
        "scenario": "antiphishing",
        "task": "heed-ie_passive-warning",
        "n_receivers": 100_000,
        "rounds": 10,
        "recovery_rate": 0.1,
        "reference_protection_rate": 0.027220875,
    },
}

TOLERANCE_SIGMAS = 6.0
REPEAT_EVERY = 8


def prepare(workload: str) -> Callable[[int], Any]:
    """Build the engine for one workload; returns ``simulate(seed)``."""
    from repro.simulation.engine import HumanLoopSimulator, SimulationConfig
    from repro.systems import get_scenario

    spec = ENGINE_WORKLOADS[workload]
    scenario = get_scenario(spec["scenario"])
    task = scenario.task(spec["task"])
    population = scenario.population()
    simulator = HumanLoopSimulator(SimulationConfig(calibration=scenario.calibration()))

    def simulate(seed: int) -> Any:
        return simulator.simulate_task(
            task,
            population,
            n_receivers=spec["n_receivers"],
            seed=seed,
            rounds=spec["rounds"],
            recovery_rate=spec["recovery_rate"],
        )

    return simulate


def canonical(result: Any) -> str:
    """The result's outcome counts as one string (no timings)."""
    return json.dumps(
        {
            "tally": dataclasses.asdict(result.tally),
            "round_tallies": [dataclasses.asdict(t) for t in result.round_tallies],
            "funnel": None if result.funnel is None else result.funnel.to_dict(),
            "round_funnels": [f.to_dict() for f in result.round_funnels],
        },
        sort_keys=True,
    )


def _funnel_problems(funnel: Any, n: int, where: str) -> List[str]:
    sequence = [n]
    for entered, passed in zip(funnel.entered, funnel.passed):
        sequence += [entered, passed]
    if any(later > earlier for earlier, later in zip(sequence, sequence[1:])):
        return [f"{where} funnel increases: {sequence}"]
    if funnel.n != n:
        return [f"{where} funnel counts {funnel.n} encounters, expected {n}"]
    return []


def check_result(result: Any, workload: str) -> List[str]:
    """Tally invariants and the binomial protection-rate check."""
    spec = ENGINE_WORKLOADS[workload]
    receivers, rounds = spec["n_receivers"], spec["rounds"]
    expected = receivers * rounds
    problems: List[str] = []
    tally = result.tally
    if tally.n != expected:
        problems.append(f"tally counts {tally.n} receiver-rounds, expected {expected}")
    if sum(tally.outcome_counts_by_code) != tally.n:
        problems.append("outcome counts do not sum to receiver-rounds")
    if len(result.round_tallies) != rounds or any(
        t.n != receivers or sum(t.outcome_counts_by_code) != receivers
        for t in result.round_tallies
    ):
        problems.append("round tallies do not each count every receiver once")
    rates = dict(result.summary())
    rates.pop("n_receivers")
    rates.pop("receiver_rounds")
    for t in result.round_tallies:
        rates.update({f"round{t.round_index}:{k}": v for k, v in t.summary().items()
                      if k.endswith("_rate")})
    if result.funnel is None:
        problems.append("no funnel (trace is on by default)")
    else:
        rates.update(result.funnel.summary())
        problems += _funnel_problems(result.funnel, expected, "aggregate")
        for index, funnel in enumerate(result.round_funnels):
            problems += _funnel_problems(funnel, receivers, f"round {index}")
    for name, value in rates.items():
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            problems.append(f"rate {name} = {value!r} is not within [0, 1]")
    reference = spec["reference_protection_rate"]
    sigma = math.sqrt(reference * (1.0 - reference) / receivers)
    rate = result.protection_rate()
    if not abs(rate - reference) <= TOLERANCE_SIGMAS * sigma:
        problems.append(
            f"protection rate {rate!r} is more than {TOLERANCE_SIGMAS} sigma "
            f"({sigma:.6f}) from the seed commit's {reference}"
        )
    return problems


@dataclasses.dataclass
class EnginePhase:
    """Calls made in one measured phase, with calibration samples around them."""

    calls: List[Tuple[float, float]]  # (start, end) of each simulate_task call
    samples: List[Sample]
    traced: List[bool] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)


def run_phase(
    workload: str,
    simulate: Callable[[int], Any],
    seeds: random.Random,
    seconds: float,
    recorder: Optional[SpanRecorder] = None,
) -> EnginePhase:
    """Call ``simulate`` for ``seconds``, checking every result.

    The calibration kernel is timed before the first call and after
    every call.  With a ``recorder``, every second call runs with the
    engine wrappers installed, so traced and untraced calls see the same
    host conditions.
    """
    started = time.perf_counter()
    phase = EnginePhase(calls=[], samples=[(started, kernel_s())])
    first: Dict[str, Any] = {}
    deadline = started + seconds
    while time.perf_counter() < deadline:
        repeat = "seed" in first and phase.attempted % REPEAT_EVERY == REPEAT_EVERY - 1
        seed = first["seed"] if repeat else seeds.randrange(2**32)
        traced = recorder is not None and phase.attempted % 2 == 1
        if traced:
            recorder.install(ENGINE_TARGETS)
        call_start = time.perf_counter()
        result = simulate(seed)
        call_end = time.perf_counter()
        if traced:
            recorder.uninstall()
        phase.calls.append((call_start, call_end))
        phase.traced.append(traced)
        phase.samples.append((call_end, kernel_s()))
        problems = check_result(result, workload)
        text = canonical(result)
        if "seed" not in first:
            first.update(seed=seed, canonical=text)
        elif repeat and text != first["canonical"]:
            problems.append(f"seed {seed} did not reproduce its first result")
        phase.attempted += 1
        if problems:
            phase.failed += 1
            phase.problems += problems[: max(0, 5 - len(phase.problems))]
    return phase
