"""Golden pins of the engine's draw streams, as integers recorded once.

The equivalence contracts (batch == reference, chunked == whole,
serial == parallel, legacy replay) compare two fresh runs of the same
code, so a change that shifts every stream the same way passes them
all.  Archived rows are only worth keeping if they replay the exact bits
they were drawn with, so this module compares fresh runs against fixed
numbers instead:

* per-round outcome counts and funnel entered/passed counts over a grid
  of tasks × rng modes × round counts × execution modes, with an uneven
  last chunk, multi-round habituation and outcome-coupled weights;
* the first raw values of trait 0, the spoof uniforms and decision
  column 0, from the counter cell ``(77, chunk 1)`` and from the matrix
  chunk-1 stream.

A failure here means the draw layout changed: every archived row of that
rng mode would stop reproducing.
"""

import pytest

from repro.core.task import HumanSecurityTask
from repro.simulation import batch as batch_module
from repro.simulation.calibration import StageCalibration
from repro.simulation.engine import HumanLoopSimulator, SimulationConfig
from repro.simulation.population import general_web_population
from repro.simulation.rng import DRAW_SOURCES
from repro.systems import get_scenario

SEED = 77
BATCH_SIZE = 400
#: Receivers per execution mode: batch runs end on an uneven 203-receiver chunk.
COUNTS = {"batch": 1003, "reference": 211}
ENGINE_KNOBS = dict(recovery_rate=0.1, dismiss_weight=1.5, heed_weight=0.5)
#: Task keys: (scenario, task name), or ``None`` for the no-communication task.
TASKS = {
    "active": ("antiphishing", "heed-ie_active-warning"),
    "passive": ("antiphishing", "heed-ie_passive-warning"),
    "passwords": ("passwords", None),
    "silent": None,
}
RAW_COUNT = 211


def _components(task_key):
    if TASKS[task_key] is None:
        task = HumanSecurityTask(name="silent", desired_action="act")
        return task, general_web_population(), StageCalibration.neutral()
    scenario_name, task_name = TASKS[task_key]
    scenario = get_scenario(scenario_name)
    return scenario.task(task_name), scenario.population(), scenario.calibration()


def _observe(task_key, rng_mode, rounds, mode):
    """Per round: ``[outcome counts by code, funnel entered, funnel passed]``."""
    task, population, calibration = _components(task_key)
    simulator = HumanLoopSimulator(
        SimulationConfig(calibration=calibration, batch_size=BATCH_SIZE, **ENGINE_KNOBS)
    )
    result = simulator.simulate_task(
        task,
        population,
        n_receivers=COUNTS[mode],
        seed=SEED,
        mode=mode,
        rounds=rounds,
        rng_mode=rng_mode,
    )
    return [
        [list(tally.outcome_counts_by_code), list(funnel.entered), list(funnel.passed)]
        for tally, funnel in zip(result.round_tallies, result.round_funnels)
    ]


def _raw(draws):
    return {
        "trait0": [float(value) for value in draws.samples.traits["security_knowledge"][:3]],
        "spoof": [float(value) for value in draws.spoof_uniforms[:3]],
        "decision0": [float(value) for value in draws.decisions[:3, 0]],
    }


def _observe_raw(rng_mode):
    task, population, calibration = _components("active")
    plan = HumanLoopSimulator(SimulationConfig(calibration=calibration))._plan_for(task)
    cell = DRAW_SOURCES[rng_mode](SEED, 1)
    return _raw(batch_module.draw_batch_counter(plan, population, RAW_COUNT, cell))


GRID = [
    (task_key, rng_mode, rounds, mode)
    for task_key in TASKS
    for rng_mode in ("counter", "matrix")
    for rounds in (1, 3)
    for mode in ("batch", "reference")
]

PINS = {
    ('active', 'counter', 1, 'batch'): [
        [[127, 0, 568, 308, 0], [1003, 966, 817, 431, 410, 172, 147], [966, 817, 431, 410, 172, 147, 127]],
    ],
    ('active', 'counter', 1, 'reference'): [
        [[33, 0, 116, 62, 0], [211, 205, 169, 87, 85, 40, 36], [205, 169, 87, 85, 40, 36, 33]],
    ],
    ('active', 'counter', 3, 'batch'): [
        [[127, 0, 568, 308, 0], [1003, 966, 817, 431, 410, 172, 147], [966, 817, 431, 410, 172, 147, 127]],
        [[132, 0, 562, 309, 0], [1003, 963, 822, 446, 414, 184, 156], [963, 822, 446, 414, 184, 156, 132]],
        [[141, 0, 531, 331, 0], [1003, 972, 810, 437, 416, 180, 157], [972, 810, 437, 416, 180, 157, 141]],
    ],
    ('active', 'counter', 3, 'reference'): [
        [[33, 0, 116, 62, 0], [211, 205, 169, 87, 85, 40, 36], [205, 169, 87, 85, 40, 36, 33]],
        [[22, 0, 118, 71, 0], [211, 199, 167, 85, 82, 32, 25], [199, 167, 85, 82, 32, 25, 22]],
        [[38, 0, 113, 60, 0], [211, 203, 175, 95, 89, 48, 40], [203, 175, 95, 89, 48, 40, 38]],
    ],
    ('active', 'matrix', 1, 'batch'): [
        [[151, 0, 572, 280, 0], [1003, 961, 804, 435, 400, 197, 175], [961, 804, 435, 400, 197, 175, 151]],
    ],
    ('active', 'matrix', 1, 'reference'): [
        [[29, 0, 112, 70, 0], [211, 204, 164, 95, 88, 37, 34], [204, 164, 95, 88, 37, 34, 29]],
    ],
    ('active', 'matrix', 3, 'batch'): [
        [[151, 0, 572, 280, 0], [1003, 961, 804, 435, 400, 197, 175], [961, 804, 435, 400, 197, 175, 151]],
        [[143, 0, 559, 301, 0], [1003, 975, 815, 421, 397, 186, 165], [975, 815, 421, 397, 186, 165, 143]],
        [[128, 0, 581, 294, 0], [1003, 972, 819, 423, 400, 190, 157], [972, 819, 423, 400, 190, 157, 128]],
    ],
    ('active', 'matrix', 3, 'reference'): [
        [[29, 0, 112, 70, 0], [211, 204, 164, 95, 88, 37, 34], [204, 164, 95, 88, 37, 34, 29]],
        [[39, 0, 107, 65, 0], [211, 203, 174, 92, 88, 43, 39], [203, 174, 92, 88, 43, 39, 39]],
        [[32, 0, 108, 71, 0], [211, 203, 171, 91, 84, 36, 35], [203, 171, 91, 84, 36, 35, 32]],
    ],
    ('passive', 'counter', 1, 'batch'): [
        [[30, 0, 0, 243, 730], [1003, 273, 211, 103, 99, 45, 39], [273, 211, 103, 99, 45, 39, 30]],
    ],
    ('passive', 'counter', 1, 'reference'): [
        [[10, 0, 0, 49, 152], [211, 59, 45, 17, 17, 12, 10], [59, 45, 17, 17, 12, 10, 10]],
    ],
    ('passive', 'counter', 3, 'batch'): [
        [[30, 0, 0, 243, 730], [1003, 273, 211, 103, 99, 45, 39], [273, 211, 103, 99, 45, 39, 30]],
        [[29, 0, 0, 195, 779], [1003, 224, 187, 84, 81, 44, 36], [224, 187, 84, 81, 44, 36, 29]],
        [[31, 0, 0, 217, 755], [1003, 248, 190, 89, 86, 42, 37], [248, 190, 89, 86, 42, 37, 31]],
    ],
    ('passive', 'counter', 3, 'reference'): [
        [[10, 0, 0, 49, 152], [211, 59, 45, 17, 17, 12, 10], [59, 45, 17, 17, 12, 10, 10]],
        [[6, 0, 0, 46, 159], [211, 52, 46, 23, 22, 10, 7], [52, 46, 23, 22, 10, 7, 6]],
        [[10, 0, 0, 45, 156], [211, 55, 42, 19, 18, 11, 10], [55, 42, 19, 18, 11, 10, 10]],
    ],
    ('passive', 'matrix', 1, 'batch'): [
        [[32, 0, 0, 220, 751], [1003, 252, 192, 91, 84, 45, 38], [252, 192, 91, 84, 45, 38, 32]],
    ],
    ('passive', 'matrix', 1, 'reference'): [
        [[4, 0, 0, 41, 166], [211, 45, 30, 19, 18, 6, 6], [45, 30, 19, 18, 6, 6, 4]],
    ],
    ('passive', 'matrix', 3, 'batch'): [
        [[32, 0, 0, 220, 751], [1003, 252, 192, 91, 84, 45, 38], [252, 192, 91, 84, 45, 38, 32]],
        [[31, 0, 0, 215, 757], [1003, 246, 185, 86, 82, 40, 36], [246, 185, 86, 82, 40, 36, 31]],
        [[28, 0, 0, 189, 786], [1003, 217, 175, 86, 82, 38, 34], [217, 175, 86, 82, 38, 34, 28]],
    ],
    ('passive', 'matrix', 3, 'reference'): [
        [[4, 0, 0, 41, 166], [211, 45, 30, 19, 18, 6, 6], [45, 30, 19, 18, 6, 6, 4]],
        [[11, 0, 0, 45, 155], [211, 56, 47, 24, 24, 12, 11], [56, 47, 24, 24, 12, 11, 11]],
        [[7, 0, 0, 39, 165], [211, 46, 40, 20, 20, 8, 8], [46, 40, 20, 20, 8, 8, 7]],
    ],
    ('passwords', 'counter', 1, 'batch'): [
        [[482, 0, 0, 509, 12], [1003, 991, 979, 955, 939, 921, 866, 660, 557], [991, 979, 955, 939, 921, 866, 660, 557, 482]],
    ],
    ('passwords', 'counter', 1, 'reference'): [
        [[102, 0, 0, 105, 4], [211, 207, 204, 197, 196, 189, 179, 132, 121], [207, 204, 197, 196, 189, 179, 132, 121, 102]],
    ],
    ('passwords', 'counter', 3, 'batch'): [
        [[482, 0, 0, 509, 12], [1003, 991, 979, 955, 939, 921, 866, 660, 557], [991, 979, 955, 939, 921, 866, 660, 557, 482]],
        [[450, 0, 0, 537, 16], [1003, 987, 975, 962, 943, 914, 860, 626, 508], [987, 975, 962, 943, 914, 860, 626, 508, 450]],
        [[440, 0, 0, 546, 17], [1003, 986, 968, 946, 929, 905, 856, 596, 511], [986, 968, 946, 929, 905, 856, 596, 511, 440]],
    ],
    ('passwords', 'counter', 3, 'reference'): [
        [[102, 0, 0, 105, 4], [211, 207, 204, 197, 196, 189, 179, 132, 121], [207, 204, 197, 196, 189, 179, 132, 121, 102]],
        [[97, 0, 0, 106, 8], [211, 203, 202, 199, 199, 188, 175, 137, 110], [203, 202, 199, 199, 188, 175, 137, 110, 97]],
        [[93, 0, 0, 113, 5], [211, 206, 201, 195, 187, 177, 166, 126, 107], [206, 201, 195, 187, 177, 166, 126, 107, 93]],
    ],
    ('passwords', 'matrix', 1, 'batch'): [
        [[481, 0, 0, 502, 20], [1003, 983, 967, 948, 927, 900, 853, 648, 550], [983, 967, 948, 927, 900, 853, 648, 550, 481]],
    ],
    ('passwords', 'matrix', 1, 'reference'): [
        [[112, 0, 0, 95, 4], [211, 207, 204, 202, 195, 190, 181, 138, 121], [207, 204, 202, 195, 190, 181, 138, 121, 112]],
    ],
    ('passwords', 'matrix', 3, 'batch'): [
        [[481, 0, 0, 502, 20], [1003, 983, 967, 948, 927, 900, 853, 648, 550], [983, 967, 948, 927, 900, 853, 648, 550, 481]],
        [[471, 0, 0, 514, 18], [1003, 985, 966, 952, 932, 906, 859, 622, 537], [985, 966, 952, 932, 906, 859, 622, 537, 471]],
        [[464, 0, 0, 514, 25], [1003, 978, 959, 942, 921, 898, 845, 620, 527], [978, 959, 942, 921, 898, 845, 620, 527, 464]],
    ],
    ('passwords', 'matrix', 3, 'reference'): [
        [[112, 0, 0, 95, 4], [211, 207, 204, 202, 195, 190, 181, 138, 121], [207, 204, 202, 195, 190, 181, 138, 121, 112]],
        [[113, 0, 0, 98, 0], [211, 211, 210, 206, 202, 199, 188, 138, 121], [211, 210, 206, 202, 199, 188, 138, 121, 113]],
        [[94, 0, 0, 113, 4], [211, 207, 206, 200, 196, 190, 177, 128, 109], [207, 206, 200, 196, 190, 177, 128, 109, 94]],
    ],
    ('silent', 'counter', 1, 'batch'): [
        [[43, 0, 0, 0, 960], [1003], [43]],
    ],
    ('silent', 'counter', 1, 'reference'): [
        [[8, 0, 0, 0, 203], [211], [8]],
    ],
    ('silent', 'counter', 3, 'batch'): [
        [[43, 0, 0, 0, 960], [1003], [43]],
        [[30, 0, 0, 0, 973], [1003], [30]],
        [[38, 0, 0, 0, 965], [1003], [38]],
    ],
    ('silent', 'counter', 3, 'reference'): [
        [[8, 0, 0, 0, 203], [211], [8]],
        [[6, 0, 0, 0, 205], [211], [6]],
        [[6, 0, 0, 0, 205], [211], [6]],
    ],
    ('silent', 'matrix', 1, 'batch'): [
        [[41, 0, 0, 0, 962], [1003], [41]],
    ],
    ('silent', 'matrix', 1, 'reference'): [
        [[9, 0, 0, 0, 202], [211], [9]],
    ],
    ('silent', 'matrix', 3, 'batch'): [
        [[41, 0, 0, 0, 962], [1003], [41]],
        [[30, 0, 0, 0, 973], [1003], [30]],
        [[39, 0, 0, 0, 964], [1003], [39]],
    ],
    ('silent', 'matrix', 3, 'reference'): [
        [[9, 0, 0, 0, 202], [211], [9]],
        [[6, 0, 0, 0, 205], [211], [6]],
        [[6, 0, 0, 0, 205], [211], [6]],
    ],
}

RAW_PINS = {
    'counter': {
        'trait0': [0.09322543275884362, 0.34228081741967453, 0.248050316698411],
        'spoof': [0.2341254598345427, 0.884594580226392, 0.46914914333530655],
        'decision0': [0.12412660464861336, 0.535019745870719, 0.3577665613833213],
    },
    'matrix': {
        'trait0': [0.18236964423877094, 0.23869485643070035, 0.3480995395815474],
        'spoof': [0.4099746150540502, 0.31265299767121013, 0.7255677476893866],
        'decision0': [0.5681003667363271, 0.7085484612875937, 0.12775354508702164],
    },
}


@pytest.mark.parametrize("task_key,rng_mode,rounds,mode", GRID)
def test_round_counts_are_pinned(task_key, rng_mode, rounds, mode):
    assert _observe(task_key, rng_mode, rounds, mode) == PINS[
        (task_key, rng_mode, rounds, mode)
    ]


@pytest.mark.parametrize("rng_mode", ["counter", "matrix"])
def test_raw_draws_are_pinned(rng_mode):
    # Exact float equality: a pinned value is the double the stream produced.
    assert _observe_raw(rng_mode) == RAW_PINS[rng_mode]
