"""Deterministic random-number utilities for the simulation substrate.

All stochastic behaviour in the simulation flows through sources created
from an explicit seed, so every experiment in the benchmark harness is
exactly reproducible:

* :class:`SimulationRng` — the sequential source.  Wraps
  :class:`numpy.random.Generator` and adds the scalar draws the
  per-receiver helpers need (Bernoulli trials, truncated normals,
  independent child streams).  Draw *order* matters: the k-th value
  depends on the k-1 draws before it.
* :class:`DrawSource` — what the engine's draw functions
  (:func:`~repro.simulation.batch.draw_batch_counter`,
  :func:`~repro.simulation.batch.redraw_decisions_counter`,
  :meth:`~repro.simulation.population.PopulationSpec.sample_traits`) call
  on one (seed, chunk, round) cell.  :data:`DRAW_SOURCES` names the
  implementation of each ``rng_mode``; the engine picks one per chunk and
  runs a single draw path over it.
* :class:`CounterDraws` — the engine's source (``rng_mode="counter"``),
  following the "Parallel random numbers: as easy as 1, 2, 3" design of
  keyed counter streams.  Every draw category of a cell owns a dedicated
  keyed stream, so the i-th value of any stream is addressable in O(1)
  (:meth:`CounterDraws.uniform_at`) without generating its predecessors,
  and no category's draws depend on how many draws another category
  consumed.  Truncated normals come from a fixed-consumption dual-output
  Box–Muller transform instead of numpy's variable-consumption ziggurat,
  keeping them addressable too.
* :class:`MatrixDraws` — the replay adapter for ``rng_mode="matrix"``:
  the historical sequential layout of one :class:`SimulationRng` stream
  per chunk behind the same interface, kept so archived rows reproduce
  the exact bits they were drawn with.

The counter source keys one :class:`numpy.random.PCG64` state per stream
(the state words are a splitmix64 hash of the (seed, chunk, round,
stream) coordinates, so keying costs microseconds and never touches
:class:`numpy.random.SeedSequence` in the hot path).  PCG64 consumes
exactly one underlying step per double and supports O(1) ``advance``,
which is what makes element ``i`` of any stream reachable without
generating elements ``0..i-1``.  Each cell constructs a *single* bit
generator and repositions it per stream by assigning a cached state
template — bulk fills, redraws and point queries all share it
(:attr:`CounterDraws.bit_generator_constructions` counts the
constructions so the regression suite can pin the cache).

The module keeps no mutable state of its own.  Arrays the counter draws
fill come from a :class:`DrawBuffers` the caller owns and passes in, or
are allocated fresh, so concurrent draws never share memory.
"""

from __future__ import annotations

import types
from typing import Callable, Dict, Mapping, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..core.exceptions import SimulationError

__all__ = [
    "SimulationRng",
    "DrawSource",
    "CounterDraws",
    "MatrixDraws",
    "DRAW_SOURCES",
    "DrawBuffers",
    "empty_array",
    "trait_streams",
    "AGE_STREAMS",
    "TRAINED_STREAM",
    "SPOOF_STREAM",
    "NOISE_STREAMS",
    "DECISION_STREAM_BASE",
]

# ---------------------------------------------------------------------------
# Counter-based stream layout
#
# Each draw category of a chunk-round cell owns its own keyed sub-stream.
# Trait k consumes the Box-Muller pair (2k, 2k+1); the remaining categories
# start above the trait block (21 traits -> streams 0..41).
# ---------------------------------------------------------------------------

#: Box-Muller uniform pair for the demographic age draw.
AGE_STREAMS: Tuple[int, int] = (42, 43)
#: Training-fraction Bernoulli uniforms.
TRAINED_STREAM = 44
#: Attacker spoof uniforms.
SPOOF_STREAM = 45
#: Box-Muller uniform pair for the per-receiver perception noise.
NOISE_STREAMS: Tuple[int, int] = (46, 47)
#: Decision column ``c`` of the draw layout reads stream ``BASE + c``.
DECISION_STREAM_BASE = 48

_CHUNK_BITS = 24
_ROUND_BITS = 20
_STREAM_BITS = 20


def trait_streams(trait_index: int) -> Tuple[int, int]:
    """The Box-Muller uniform stream pair of one population trait."""
    return (2 * trait_index, 2 * trait_index + 1)


_TWO_PI = 2.0 * np.pi
_MASK64 = (1 << 64) - 1

class DrawBuffers:
    """Reusable draw arrays for one caller at a time, keyed by purpose and shape.

    The counter draws fill multi-megabyte arrays per chunk: the trait
    block, the Box–Muller temporaries and the decision matrix.  Chunk
    sizes repeat, so handing the same memory back on the next same-shape
    request saves the page faults of a fresh allocation every chunk.
    :class:`~repro.simulation.engine.HumanLoopSimulator` owns one and
    passes it down explicitly; draw functions called without one
    allocate fresh arrays.

    An array stays valid only until the next request with the same
    purpose and shape, so a holder must be used by one call at a time,
    and that call must not keep views of its draws past the next draw.
    """

    #: Distinct (purpose, shape, order) arrays kept before starting over.
    LIMIT = 32

    def __init__(self) -> None:
        self._arrays: Dict[Tuple[str, Tuple[int, ...], str], np.ndarray] = {}

    def array(
        self, purpose: str, shape: Tuple[int, ...], order: str = "C"
    ) -> np.ndarray:
        """The uninitialized array kept for ``purpose`` at ``shape``."""
        key = (purpose, shape, order)
        array = self._arrays.get(key)
        if array is None:
            if len(self._arrays) >= self.LIMIT:
                self._arrays.clear()
            array = self._arrays[key] = np.empty(shape, order=order)
        return array


def empty_array(
    buffers: Optional[DrawBuffers],
    purpose: str,
    shape: Tuple[int, ...],
    order: str = "C",
) -> np.ndarray:
    """``buffers.array(...)``, or a fresh array when there are no buffers."""
    if buffers is None:
        return np.empty(shape, order=order)
    return buffers.array(purpose, shape, order)


def _check_clip(std: float, low: float, high: float) -> None:
    """Reject a clipped-normal request with a negative std or empty range."""
    if std < 0:
        raise SimulationError("std must be non-negative")
    if high < low:
        raise SimulationError("high must be >= low")


def _splitmix64(value: int) -> int:
    """One splitmix64 step: a cheap, well-mixed 64-bit hash permutation."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


#: xxHash64 primes and the int-hash modulus of CPython's tuple hash.
_XXPRIME_1 = 11400714785074694791
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261
_INT_HASH_MODULUS = (1 << 61) - 1


def _spawn_seed(seed: int, index: int) -> int:
    """The child seed of ``SimulationRng(seed).spawn(index)``.

    The value is ``hash((seed, index)) % 2**32`` as 64-bit CPython
    computes it, spelled out as integer arithmetic so archived
    ``rng_mode="matrix"`` rows replay on any interpreter: each
    non-negative int hashes to itself mod 2**61 - 1, and the tuple folds
    those lanes with the xxHash64 round, then adds its mangled length.
    """
    acc = _XXPRIME_5
    for value in (seed, index):
        acc = (acc + (value % _INT_HASH_MODULUS) * _XXPRIME_2) & _MASK64
        acc = ((acc << 31) | (acc >> 33)) & _MASK64
        acc = (acc * _XXPRIME_1) & _MASK64
    acc = (acc + (2 ^ _XXPRIME_5 ^ 3527539)) & _MASK64
    if acc == _MASK64:  # CPython reserves -1 as its error hash
        acc = 1546275796
    return acc % (1 << 32)


def _stream_state(seed: int, packed: int) -> dict:
    """The frozen PCG64 state template of one (seed, packed-coords) stream.

    Four splitmix64 words derived from the coordinates become the 128-bit
    LCG state and the (forced-odd) 128-bit increment.  Direct state
    assignment costs ~1 microsecond where a ``SeedSequence``-seeded
    construction costs ~70 — the difference is the whole construction
    budget of a 100k-receiver counter run.  The derivation is pure
    arithmetic on the coordinates, so persisted counter-mode draws replay
    independently of numpy's seeding helpers.
    """
    mixed = _splitmix64(_splitmix64(seed) ^ packed)
    word0 = _splitmix64(mixed)
    word1 = _splitmix64(word0)
    word2 = _splitmix64(word1)
    word3 = _splitmix64(word2)
    return {
        "bit_generator": "PCG64",
        "state": {"state": (word0 << 64) | word1, "inc": ((word2 << 64) | word3) | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }


class SimulationRng:
    """Seeded random source for simulations.

    Parameters
    ----------
    seed:
        Any non-negative integer.  The same seed always produces the same
        stream of draws.
    """

    def __init__(self, seed: int = 0) -> None:
        if seed < 0:
            raise SimulationError("seed must be non-negative")
        self.seed = seed
        self._generator = np.random.default_rng(seed)

    def spawn(self, index: int) -> "SimulationRng":
        """Create an independent child stream.

        Child streams are derived deterministically from the parent seed
        and ``index``, so per-user streams do not depend on the order in
        which users are simulated.
        """
        if index < 0:
            raise SimulationError("spawn index must be non-negative")
        return SimulationRng(seed=_spawn_seed(self.seed, index))

    def bernoulli(self, probability: float) -> bool:
        """One biased coin flip."""
        if not 0.0 <= probability <= 1.0:
            raise SimulationError(f"probability must be in [0, 1], got {probability}")
        return bool(self._generator.random() < probability)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform draw on [low, high)."""
        if high < low:
            raise SimulationError("high must be >= low")
        return float(self._generator.uniform(low, high))

    def truncated_normal(
        self, mean: float, std: float, low: float = 0.0, high: float = 1.0
    ) -> float:
        """A normal draw clipped to [low, high].

        Clipping (rather than rejection sampling) is adequate here: the
        traits being sampled are bounded behavioural scores, and the exact
        tail shape is immaterial to the reproduced effect sizes.
        """
        _check_clip(std, low, high)
        value = self._generator.normal(mean, std) if std > 0 else mean
        return float(min(high, max(low, value)))

    def integers(self, low: int, high: int) -> int:
        """One integer draw in [low, high)."""
        if high <= low:
            raise SimulationError("high must be > low")
        return int(self._generator.integers(low, high))

    def choice(self, options: Sequence, probabilities: Optional[Sequence[float]] = None):
        """Choose one element, optionally with explicit probabilities."""
        if not options:
            raise SimulationError("options must be non-empty")
        if probabilities is not None:
            if len(probabilities) != len(options):
                raise SimulationError("probabilities must match options length")
            total = float(sum(probabilities))
            if total <= 0:
                raise SimulationError("probabilities must sum to a positive value")
            probabilities = [p / total for p in probabilities]
        index = self._generator.choice(len(options), p=probabilities)
        return options[int(index)]


class DrawSource(Protocol):
    """The draws of one (seed, chunk, round) cell, as the draw functions call them.

    ``stream`` ids follow the counter layout above; a source that draws in
    call order (:class:`MatrixDraws`) ignores them.  ``buffers`` may
    supply recycled output arrays (see :class:`DrawBuffers`).
    """

    def for_round(self, round_index: int) -> "DrawSource":
        """The same chunk cell at another hazard-encounter round."""
        ...

    def uniforms(self, stream: int, size: int) -> np.ndarray:
        """``size`` uniform [0, 1) values."""
        ...

    def clipped_normal_block(
        self,
        pairs: Sequence[Tuple[int, int]],
        means: Sequence[float],
        stds: Sequence[float],
        lows: Sequence[float],
        highs: Sequence[float],
        count: int,
        buffers: Optional[DrawBuffers] = None,
    ) -> np.ndarray:
        """A (len(pairs), count) matrix of clipped normals, one row per pair."""
        ...

    def clipped_normals(
        self,
        streams: Tuple[int, int],
        mean: float,
        std: float,
        low: float,
        high: float,
        size: int,
        buffers: Optional[DrawBuffers] = None,
    ) -> np.ndarray:
        """``size`` normals clipped to [low, high]."""
        ...

    def decision_matrix(
        self, count: int, columns: int, buffers: Optional[DrawBuffers] = None
    ) -> np.ndarray:
        """The (count, columns) decision uniforms, laid out by ``decision_columns``."""
        ...


class CounterDraws:
    """Counter-addressable draw streams for one (seed, chunk, round) cell.

    The counter-based decision source behind ``rng_mode="counter"``: every
    stream of the cell maps to its own keyed PCG64 state (derived by
    :func:`_stream_state` from ``seed`` and the packed ``chunk << 40 |
    round << 20 | stream`` coordinates), so

    * streams are independent by construction — chunk randomness does not
      depend on the order chunks run in (what makes in-call multicore
      bit-identical to serial), and round ``r`` redraws do not depend on
      rounds ``< r``;
    * any single value is recomputable in O(1): PCG64 consumes one
      underlying step per double and jumps in O(1), so element ``i`` of a
      stream is ``advance(i)`` plus one generated value
      (:meth:`uniform_at`), with no need to materialize the matrix it
      came from.

    The cell lazily constructs **one** bit generator and one
    :class:`numpy.random.Generator` and repositions them per stream by
    assigning a cached state template (state assignment is bit-identical
    to a fresh construction, ~70x cheaper); bulk fills and point queries
    share them, and :attr:`bit_generator_constructions` exposes the count
    for the cache regression test.

    Normals use a dual-output Box–Muller transform: pair ``j`` reads
    ``u1 = stream_a[j]``, ``u2 = stream_b[j]`` and yields **both**
    ``r·cos θ`` and ``r·sin θ`` (one uniform per normal, half the
    transcendentals of the single-output transform), laid out as the cos
    block followed by the sin block — see :meth:`clipped_normal_block`.
    Bulk generation and point addressing are bitwise identical; the
    equivalence suite in ``tests/simulation/test_counter_rng.py`` pins
    both.
    """

    def __init__(self, seed: int, chunk: int = 0, round_index: int = 0) -> None:
        if seed < 0:
            raise SimulationError("seed must be non-negative")
        if seed >= (1 << 64):
            raise SimulationError("seed must fit in 64 bits")
        if not 0 <= chunk < (1 << _CHUNK_BITS):
            raise SimulationError(f"chunk must be in [0, 2**{_CHUNK_BITS})")
        if not 0 <= round_index < (1 << _ROUND_BITS):
            raise SimulationError(f"round_index must be in [0, 2**{_ROUND_BITS})")
        self.seed = seed
        self.chunk = chunk
        self.round_index = round_index
        #: Constructions of the underlying bit generator — stays at 1 per
        #: cell however many streams, fills, or point queries it serves.
        self.bit_generator_constructions = 0
        self._bit_gen: Optional[np.random.PCG64] = None
        self._generator: Optional[np.random.Generator] = None
        self._state_templates: Dict[int, dict] = {}

    def for_round(self, round_index: int) -> "CounterDraws":
        """The same chunk cell at another hazard-encounter round."""
        return CounterDraws(self.seed, self.chunk, round_index)

    def _template(self, stream: int) -> dict:
        template = self._state_templates.get(stream)
        if template is None:
            if not 0 <= stream < (1 << _STREAM_BITS):
                raise SimulationError(f"stream must be in [0, 2**{_STREAM_BITS})")
            packed = (
                (self.chunk << (_ROUND_BITS + _STREAM_BITS))
                | (self.round_index << _STREAM_BITS)
                | stream
            )
            template = _stream_state(self.seed, packed)
            self._state_templates[stream] = template
        return template

    def _position(self, stream: int, index: int = 0) -> np.random.Generator:
        """The cell generator, rewound to element ``index`` of ``stream``."""
        template = self._template(stream)
        if self._generator is None:
            self._bit_gen = np.random.PCG64(np.random.SeedSequence(0))
            self._generator = np.random.Generator(self._bit_gen)
            self.bit_generator_constructions += 1
        self._bit_gen.state = template
        if index:
            self._bit_gen.advance(index)
        return self._generator

    # -- uniforms ---------------------------------------------------------------

    def uniforms(self, stream: int, size: int) -> np.ndarray:
        """The first ``size`` uniform [0, 1) values of one stream."""
        if size < 0:
            raise SimulationError("size must be non-negative")
        return self._position(stream).random(size)

    def fill_uniforms(self, stream: int, out: np.ndarray) -> None:
        """Fill a contiguous array with the stream prefix, allocation-free."""
        self._position(stream).random(out=out)

    def uniform_at(self, stream: int, index: int) -> float:
        """Element ``index`` of a stream in O(1), bit-identical to bulk.

        PCG64 yields exactly one double per underlying step, so
        ``advance(index)`` lands immediately before the target element.
        """
        if index < 0:
            raise SimulationError("index must be non-negative")
        return float(self._position(stream, index).random(1)[0])

    def decision_matrix(
        self, count: int, columns: int, buffers: Optional[DrawBuffers] = None
    ) -> np.ndarray:
        """Decision column ``c`` is the prefix of stream ``DECISION_STREAM_BASE + c``.

        The matrix is column-major: each column is one stream's contiguous
        prefix, filled in place, and the traversal kernel's per-checkpoint
        column reads (``decisions[:, column]``) stay contiguous too.
        """
        decisions = empty_array(buffers, "decisions", (count, columns), order="F")
        for column in range(columns):
            self.fill_uniforms(DECISION_STREAM_BASE + column, decisions[:, column])
        return decisions

    # -- clipped normals --------------------------------------------------------
    #
    # Pair j of a (stream_a, stream_b) Box-Muller pair produces TWO
    # normals — r_j*cos(theta_j) and r_j*sin(theta_j) with
    # r_j = sqrt(-2*log(1-u1_j)), theta_j = 2*pi*u2_j — so a width-n
    # vector consumes ceil(n/2) uniforms per stream instead of n.  The
    # sine leg is recovered from the cosine as sign(sin) * sqrt(1-c^2)
    # (sin is negative iff u2 > 0.5), trading a transcendental for a
    # square root.  Layout: elements [0, half) are the cos outputs of
    # pairs 0..half-1, elements [half, n) the sin outputs of pairs
    # 0..n-half-1 — which makes the address of one element depend on the
    # cell's draw width (the chunk size), hence the ``count`` argument on
    # the point query.

    def clipped_normal_block(
        self,
        pairs: Sequence[Tuple[int, int]],
        means: Sequence[float],
        stds: Sequence[float],
        lows: Sequence[float],
        highs: Sequence[float],
        count: int,
        buffers: Optional[DrawBuffers] = None,
    ) -> np.ndarray:
        """A (len(pairs), count) matrix of clipped Box-Muller normals.

        One vectorized transcendental pass covers every row, which is
        what lets counter-mode trait sampling outrun the matrix path's
        per-trait ziggurat fills.  Rows with zero std are constant and
        consume no stream values.

        With ``buffers`` the returned matrix and the transform's
        temporaries come from that :class:`DrawBuffers`, so the result is
        only valid until its next same-shape draw (values are the same
        either way — only the backing memory is recycled).
        """
        if count < 0:
            raise SimulationError("count must be non-negative")
        rows = len(pairs)
        for std, low, high in zip(stds, lows, highs):
            _check_clip(std, low, high)
        half = (count + 1) // 2
        block = empty_array(buffers, "normals", (rows, 2 * half))
        active = [row for row in range(rows) if stds[row] > 0]
        if active and count:
            u1 = block[:, :half]
            u2 = block[:, half:]
            for row in active:
                stream_a, stream_b = pairs[row]
                self.fill_uniforms(stream_a, u1[row])
                self.fill_uniforms(stream_b, u2[row])
            sub1 = u1[active] if len(active) < rows else u1
            sub2 = u2[active] if len(active) < rows else u2
            # sub = copies when some rows are inactive; write results back.
            shape = (len(active), half)
            cosine = empty_array(buffers, "cosine", shape)
            unit_sine = empty_array(buffers, "unit_sine", shape)
            sine_sign = empty_array(buffers, "sine_sign", shape)
            radius = sub1
            # log(1 - u) over log1p(-u): numpy vectorizes log but not
            # log1p, and the argument only loses precision where the
            # radius is already ~0 (u -> 0), which the clip bounds hide;
            # at the large-radius tail (u -> 1) the subtraction is exact.
            np.subtract(1.0, radius, out=radius)
            np.log(radius, out=radius)
            radius *= -2.0
            np.sqrt(radius, out=radius)
            # Both legs of a pair share one radius and one row std, so
            # the std scaling rides the half-width radius array instead
            # of a second full-width pass over the assembled block.
            radius *= np.array([stds[row] for row in active])[:, None]
            # Quarter-wave cosine: numpy's vectorized cos is ~4x faster
            # below pi/4 than across [0, 2*pi), so fold u into
            # x = quarter-phase in [0, 1/4] plus two sign carriers and
            # recover cos(2*pi*u) = sign * (2*cos^2(pi*x) - 1) via the
            # half-angle identity (argument pi*x stays inside the fast
            # path).  cos is negative iff |u - 0.5| < 0.25 (carrier t);
            # sin is negative iff u > 0.5 (carrier 0.5 - u).
            np.subtract(0.5, sub2, out=sine_sign)
            np.abs(sine_sign, out=sub2)
            np.subtract(sub2, 0.25, out=sub2)
            np.abs(sub2, out=cosine)
            np.subtract(0.25, cosine, out=cosine)
            cosine *= np.pi
            np.cos(cosine, out=cosine)
            np.square(cosine, out=cosine)
            cosine *= 2.0
            cosine -= 1.0
            np.copysign(cosine, sub2, out=cosine)
            # Sine leg as sign * sqrt(1 - cos^2): a square root plus a
            # single copysign pass instead of a second transcendental.
            np.square(cosine, out=unit_sine)
            np.subtract(1.0, unit_sine, out=unit_sine)
            np.sqrt(unit_sine, out=unit_sine)
            unit_sine *= radius
            np.copysign(unit_sine, sine_sign, out=sub2)
            np.multiply(cosine, radius, out=sub1)
            if len(active) < rows:
                u1[active] = sub1
                u2[active] = sub2
        result = block[:, :count]
        for row in range(rows):
            values = result[row]
            if stds[row] == 0:
                values[:] = float(min(highs[row], max(lows[row], means[row])))
                continue
            values += means[row]
            np.clip(values, lows[row], highs[row], out=values)
        return result

    def clipped_normals(
        self,
        streams: Tuple[int, int],
        mean: float,
        std: float,
        low: float,
        high: float,
        size: int,
        buffers: Optional[DrawBuffers] = None,
    ) -> np.ndarray:
        """``size`` dual-output Box-Muller normals clipped to [low, high].

        A zero ``std`` returns a constant vector and leaves the streams
        untouched (counter streams have no draw-order state to preserve).
        """
        return self.clipped_normal_block(
            [streams], [mean], [std], [low], [high], size, buffers=buffers
        )[0]

    def clipped_normal_at(
        self,
        streams: Tuple[int, int],
        mean: float,
        std: float,
        low: float,
        high: float,
        index: int,
        count: int,
    ) -> float:
        """Element ``index`` of a width-``count`` clipped-normal vector in O(1).

        ``count`` is the draw width of the vector the element belongs to
        (the chunk size): the dual-output layout places the cos outputs
        at [0, ceil(count/2)) and the sin outputs after them, so the
        pair index of an element depends on where that boundary falls.
        """
        _check_clip(std, low, high)
        if not 0 <= index < count:
            raise SimulationError("index must be in [0, count)")
        if std == 0:
            return float(min(high, max(low, mean)))
        half = (count + 1) // 2
        sine_leg = index >= half
        pair = index - half if sine_leg else index
        u1 = np.array([self.uniform_at(streams[0], pair)])
        u2 = np.array([self.uniform_at(streams[1], pair)])
        radius = np.sqrt(np.log(1.0 - u1) * -2.0)
        radius *= std
        # Same op sequence as the bulk quarter-wave transform, on
        # one-element arrays, so point and bulk values agree bit for bit.
        cos_sign = np.abs(0.5 - u2) - 0.25
        quarter = 0.25 - np.abs(cos_sign)
        quarter *= np.pi
        cosine = np.cos(quarter)
        np.square(cosine, out=cosine)
        cosine *= 2.0
        cosine -= 1.0
        np.copysign(cosine, cos_sign, out=cosine)
        if sine_leg:
            leg = np.sqrt(1.0 - np.square(cosine))
            leg *= radius
            value = float(np.copysign(leg, 0.5 - u2)[0])
        else:
            value = float((cosine * radius)[0])
        return float(min(high, max(low, value + mean)))


class MatrixDraws:
    """The sequential matrix layout behind the :class:`DrawSource` interface.

    A replay adapter, kept so rows recorded under ``rng_mode="matrix"``
    reproduce bit for bit.  It wraps the generator of
    ``SimulationRng(seed).spawn(chunk)`` (spawned again by
    ``round_index`` for a later round), ignores stream ids and
    ``buffers``, and draws in call order.  The draw functions call in the
    historical matrix order — trait rows in ``TRAIT_NAMES`` order, age,
    trained, spoof, noise, decisions — so the values are the ones the
    matrix path always drew: ziggurat normals clipped per row, and one
    row-major decision matrix.
    """

    def __init__(self, seed: int, chunk: int = 0, round_index: int = 0) -> None:
        self.seed = seed
        self.chunk = chunk
        self.round_index = round_index
        rng = SimulationRng(seed).spawn(chunk)
        if round_index:
            rng = rng.spawn(round_index)
        self._generator = rng._generator

    def for_round(self, round_index: int) -> "MatrixDraws":
        """The same chunk cell at another hazard-encounter round."""
        return MatrixDraws(self.seed, self.chunk, round_index)

    def uniforms(self, stream: int, size: int) -> np.ndarray:
        """The next ``size`` uniforms of the sequential stream."""
        if size < 0:
            raise SimulationError("size must be non-negative")
        return self._generator.random(size)

    def clipped_normals(
        self,
        streams: Tuple[int, int],
        mean: float,
        std: float,
        low: float,
        high: float,
        size: int,
        buffers: Optional[DrawBuffers] = None,
    ) -> np.ndarray:
        """The next ``size`` normals clipped to [low, high]; zero ``std`` draws nothing."""
        _check_clip(std, low, high)
        if size < 0:
            raise SimulationError("size must be non-negative")
        if std == 0:
            return np.full(size, float(min(high, max(low, mean))))
        return np.clip(self._generator.normal(mean, std, size), low, high)

    def clipped_normal_block(
        self,
        pairs: Sequence[Tuple[int, int]],
        means: Sequence[float],
        stds: Sequence[float],
        lows: Sequence[float],
        highs: Sequence[float],
        count: int,
        buffers: Optional[DrawBuffers] = None,
    ) -> np.ndarray:
        """One :meth:`clipped_normals` row per pair, drawn in row order."""
        return np.array(
            [
                self.clipped_normals(pair, mean, std, low, high, count)
                for pair, mean, std, low, high in zip(pairs, means, stds, lows, highs)
            ]
        )

    def decision_matrix(
        self, count: int, columns: int, buffers: Optional[DrawBuffers] = None
    ) -> np.ndarray:
        """The next ``count × columns`` uniforms as one row-major matrix."""
        return self._generator.random((count, columns))


#: The draw source of each ``rng_mode``, constructed as
#: ``source(seed, chunk)``; the engine's ``RNG_MODES`` is derived from it.
DRAW_SOURCES: Mapping[str, Callable[[int, int], DrawSource]] = types.MappingProxyType(
    {"matrix": MatrixDraws, "counter": CounterDraws}
)
