"""REP001 — no ambient randomness outside the simulation substrate."""

from __future__ import annotations

import ast
from typing import Iterator

from .framework import (
    Diagnostic,
    Project,
    Rule,
    SourceFile,
    register,
    resolve_call_name,
)

#: The one module allowed to own raw generator state.
RNG_MODULE_SUFFIXES = ("simulation/rng.py",)

#: ``numpy.random`` module-level functions that draw from the hidden
#: global generator — never reproducible, always an error.
AMBIENT_NUMPY_FUNCTIONS = frozenset(
    {
        "random", "rand", "randn", "randint", "random_sample", "ranf",
        "sample", "uniform", "normal", "standard_normal", "binomial",
        "poisson", "choice", "shuffle", "permutation", "seed", "bytes",
        "exponential", "beta", "gamma", "lognormal", "integers",
    }
)

#: Generator/bit-generator constructions that are fine *if* their seed
#: argument derives from an explicit ``SeedSequence``.
NUMPY_CONSTRUCTORS = frozenset(
    {"default_rng", "Generator", "RandomState", "Philox", "PCG64",
     "PCG64DXSM", "MT19937", "SFC64"}
)

#: ``random`` (stdlib) module-level functions over the hidden global
#: Mersenne state.
AMBIENT_STDLIB_FUNCTIONS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "betavariate",
        "expovariate", "triangular", "seed", "getrandbits", "randbytes",
    }
)

#: Identifier fragments that mark a constructor argument as an explicit
#: seed derivation even when the ``SeedSequence`` call happened upstream.
SEEDY_FRAGMENTS = ("seed", "entropy", "sequence", "spawn")


def _derives_from_seed_sequence(call: ast.Call) -> bool:
    """Whether any argument of a constructor call is an explicit seed.

    True when an argument subtree contains a ``SeedSequence`` (or
    ``.spawn`` / ``generate_state``) call, or names an identifier that
    carries seed material (``seed``, ``child_seq``, ...).  Pure
    heuristics on purpose: the rule fails closed on ``default_rng()`` and
    opaque arguments, and the escape hatch is the explicit
    ``# repro-lint: allow REP001 — reason`` annotation.
    """
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        for node in ast.walk(arg):
            if isinstance(node, (ast.Name, ast.Attribute)):
                identifier = (
                    node.id if isinstance(node, ast.Name) else node.attr
                ).lower()
                if identifier == "seedsequence" or any(
                    fragment in identifier for fragment in SEEDY_FRAGMENTS
                ):
                    return True
    return False


@register
class NoAmbientRng(Rule):
    """Randomness must flow through explicit, seeded streams.

    Every draw in the engine is replayable from ``(seed, chunk, round,
    stream, receiver)`` coordinates; a single ambient draw — the numpy
    global generator, the stdlib ``random`` module, or an unseeded
    ``default_rng()`` — silently breaks batch/reference/chunked/parallel
    bit-identity.  Outside ``simulation/rng.py`` a generator construction
    must visibly derive from a ``SeedSequence`` (the
    ``cluster/scheduler.py`` backoff-jitter and ``experiments/design.py``
    per-variant seed-derivation sites are the exemplars) or carry an
    ``allow`` annotation explaining why it is sound.
    """

    rule_id = "REP001"
    title = "no-ambient-rng"
    contract = (
        "generators derive from an explicit SeedSequence; no global-state "
        "numpy.random or stdlib random draws outside simulation/rng.py"
    )

    def check_file(
        self, file: SourceFile, project: Project
    ) -> Iterator[Diagnostic]:
        if file.matches(*RNG_MODULE_SUFFIXES):
            return
        from .framework import import_bindings

        bindings = import_bindings(file.tree)
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, bindings)
            if name is None:
                continue
            if name.startswith("numpy.random."):
                tail = name[len("numpy.random."):]
                if tail in AMBIENT_NUMPY_FUNCTIONS:
                    yield self.diagnostic(
                        file,
                        node,
                        f"call to numpy.random.{tail} uses the ambient "
                        "global generator; draw through an explicitly "
                        "seeded stream (see simulation/rng.py)",
                    )
                elif tail in NUMPY_CONSTRUCTORS and not _derives_from_seed_sequence(
                    node
                ):
                    yield self.diagnostic(
                        file,
                        node,
                        f"numpy.random.{tail} constructed without an "
                        "explicit SeedSequence-derived seed; ambient "
                        "generator state breaks draw-stream replayability",
                    )
            elif name == "random" or name.startswith("random."):
                tail = name.partition(".")[2]
                if tail in AMBIENT_STDLIB_FUNCTIONS or tail in {
                    "Random",
                    "SystemRandom",
                }:
                    yield self.diagnostic(
                        file,
                        node,
                        f"stdlib random.{tail} is outside the seeded "
                        "simulation substrate; use SimulationRng / "
                        "CounterDraws or a SeedSequence-derived generator",
                    )
