"""Set-function value oracles, seeded instance generators, and exact
measurement of the submodularity ratio and the monotonicity ratio on small
ground sets.

Subsets are iterables of element ids (0..n-1) at the API surface. Internally
every oracle materializes a dense value table indexed by bitmask, which keeps
the exhaustive measurements exact and cheap at desk scale. Every table
built by subset doubling (graphic matroid labels aside) comes from one
kernel, ``_doubled``, and every max or min over subsets or supersets from
one sweep, ``_sweep``. A coverage table folds its first min(m, n) universe
items by one modular-table lookup.

Oracles are immutable after construction (``_Table``, the one base of the
value and independence tables, caps each, builds it once and serves it
read-only) and safe to share across concurrent evaluators; every
measurement here is a pure function of the oracle. Each ratio has one exact
path, ``_gamma`` and ``_m``, which returns the ratio's value alone. The
modular, coverage and cut families are submodular by construction and
certify it (``submodular = True``), so ``measure_ratios`` takes their gamma
as exactly 1 without the 3^n sweep; likewise it takes m as exactly 1
without the superset sweep for an oracle certified monotone.

Every capability cap is one entry of ``BUDGET``, which ``_within`` checks
with the predicted size before the work starts.

``random_coverage`` draws the covers of numpy's ``Generator.integers`` and
``Generator.choice(replace=False)`` calls without making them: it reads one
block of the generator's 32-bit stream, which holds every word the call
takes unless a draw is rejected and refills when it runs out, and applies
numpy's own rules in Python: Lemire's bounded draw (a range of 0 takes no
word), Floyd's sample and the bounded draws of the sample's shuffle, which
a sorted cover consumes but never reads. Its generator is local to the
call, so the words of the block past the last one used are never read by
anything else.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

REL_TOL = 1e-9
CEIL_GUARD = 1e-9  # tolerant ceiling: float ratios that are mathematically
                   # integral (e.g. ln 4 / ln 2) must not round up

_GAMMA_CHUNK = 1 << 15    # (A, B) entries per gamma sweep chunk
_FLOAT = np.dtype(float)  # one object, shared by numpy's float64 arrays


class CapabilityError(RuntimeError):
    """An exact enumeration was requested beyond its supported size."""


# name -> the most work of one kind that a call may start, and the error
# past it, formatted with the limit, the size and ``what``
Cap = NamedTuple("Cap", [("limit", int), ("message", str)])
BUDGET = {
    "table": Cap(20, "{what} needs n <= {limit}, got n = {size}"),
    "gamma": Cap(12, "submodularity ratio needs n <= {limit}"),
    "search": Cap(18, "common-independent search needs <= {limit} elements"),
    "vertex-check": Cap(
        15, "cannot certify nonnegativity beyond the vertex-check limit"),
    "grid-dim": Cap(5, "grid optimum needs n <= {limit}"),
    "grid-cells": Cap(34 ** 5, "grid optimum needs at most {limit} cells"),
    "fw-records": Cap(10 ** 5, "Frank-Wolfe needs at most {limit} rounds"),
    "trials": Cap(10 ** 4, "a run or an audit takes at most {limit} trials"),
}


def _within(name: str, size, what: str = "") -> None:
    """CapabilityError unless ``size`` <= the limit of BUDGET[name]."""
    limit, message = BUDGET[name]
    if size > limit:
        raise CapabilityError(
            message.format(limit=limit, size=size, what=what))


def _integer(value, what: str) -> int:
    """``value`` as an int if it is an integer (not a bool), else
    ValueError: a float or a string is never truncated or parsed. An exact
    int, the common case, is returned as it is."""
    if type(value) is int:
        return value
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be integers, not {value!r}")


def _reals(values, what: str) -> np.ndarray:
    """``values`` as a float array if it is rectangular and every entry is
    an int or a float (numpy ones included), else ValueError: a bool, a
    string or None is never parsed, and a ragged list leaves lists as
    entries. A float ndarray is returned as it is, unwalked: the hot path
    of every oracle point."""
    if type(values) is not np.ndarray or values.dtype is not _FLOAT:
        for v in np.asarray(values, dtype=object).flat:
            if isinstance(v, bool) or not isinstance(
                    v, (int, float, np.integer, np.floating)):
                if isinstance(v, (list, tuple, np.ndarray)):
                    raise ValueError(
                        f"{what} must be a rectangular array of numbers")
                raise ValueError(f"{what}: {v!r} is not a number")
    return np.asarray(values, dtype=float)


def _finite(values, what: str, ndim: int | None = None) -> np.ndarray:
    """``_reals(values, what)`` with at least one entry, every entry finite
    and, if ``ndim`` is given, that many axes: 0 for a number, 1 for a
    vector. Every oracle and polytope here has dimension n >= 1."""
    v = _reals(values, what)
    if ndim is not None and v.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-dimensional, not {values!r}")
    if v.size == 0:
        raise ValueError("dimension needs at least one coordinate")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} must be finite")
    return v


def _allowance(magnitude):
    """The comparison allowance REL_TOL * magnitude of a value of that
    magnitude, elementwise for an array. It has no absolute floor, so an
    instance scaled by a power of two compares as the unscaled one does,
    and a magnitude of 0 compares exactly."""
    return REL_TOL * magnitude


def _count(x: float) -> int:
    """The tolerant count max(1, ceil(x - CEIL_GUARD)); ValueError for an
    infinite x."""
    if math.isinf(x):
        raise ValueError("epsilon is too small: the round count is infinite")
    return max(1, math.ceil(x - CEIL_GUARD))


def _mask(value, n: int, what: str) -> int:
    """``value`` as an int mask of a subset of {0..n-1}, else ValueError
    naming it ``what``."""
    mask = _integer(value, "masks")
    if not 0 <= mask < 1 << n:
        raise ValueError(f"{what} is not a subset of the ground set")
    return mask


def mask_of(subset: Iterable[int], n: int) -> int:
    if not isinstance(subset, Iterable):
        raise ValueError(f"{subset!r} is not an element list")
    mask = 0
    for u in subset:
        u = _integer(u, "elements")
        if not 0 <= u < n:
            raise ValueError(f"element {u} outside ground set of size {n}")
        mask |= 1 << u
    return mask


def elements_of(mask: int) -> list[int]:
    out = []
    u = 0
    while mask:
        if mask & 1:
            out.append(u)
        mask >>= 1
        u += 1
    return out


class _Table:
    """A ground set {0..n-1}, n >= 1, and its 2^n table by subset bitmask,
    which the subclass builds (``_build_table``) and serves as ``_cached``
    under its own name: within the budget before the build (the error
    names the table ``_WHAT``), converted to ``_DTYPE``, passed to
    ``_check``, cached read-only."""

    def __init__(self, n: int):
        self.n = _integer(n, "ground-set sizes")
        if self.n < 1:
            raise ValueError("ground set needs at least one element")
        self._table: np.ndarray | None = None

    def _check(self, tab: np.ndarray) -> None:
        """ValueError if ``tab`` breaks the subclass's rules."""

    def _cached(self) -> np.ndarray:
        """All 2^n entries by subset bitmask. Cached, read-only."""
        if self._table is None:
            _within("table", self.n, what=self._WHAT)
            tab = np.ascontiguousarray(self._build_table(), dtype=self._DTYPE)
            self._check(tab)
            tab.setflags(write=False)
            self._table = tab
        return self._table


class SetFunctionOracle(_Table):
    """Nonnegative set-function value oracle backed by a dense value table.

    ``monotone`` is a certified hint: True only when the construction
    guarantees monotonicity, False when it guarantees the opposite, None when
    unknown (measure it with :func:`measure_ratios` instead).

    ``submodular`` is a certificate of the class: True only when every
    instance of the family is submodular, so that its submodularity ratio is
    exactly 1 and :func:`measure_ratios` does not sweep for it.
    """

    family = "abstract"
    submodular = False
    _DTYPE = float
    _WHAT = "value table"

    def __init__(self, n: int, monotone: bool | None = None):
        super().__init__(n)
        self.monotone = monotone

    def _check(self, tab: np.ndarray) -> None:
        if not bool(np.isfinite(tab).all()):
            raise ValueError("oracle produced a non-finite value")
        if float(tab.min()) < 0.0:
            raise ValueError("oracle produced a negative value")

    table = _Table._cached

    def value_mask(self, mask: int) -> float:
        return float(self.table()[mask])

    def value(self, subset: Iterable[int]) -> float:
        return self.value_mask(mask_of(subset, self.n))

    def marginal_mask(self, u: int, mask: int) -> float:
        bit = 1 << u
        if mask & bit:
            raise ValueError(f"element {u} already in the set")
        tab = self.table()
        return float(tab[mask | bit] - tab[mask])


class ModularOracle(SetFunctionOracle):
    """f(S) = sum of per-element weights; weights must be nonnegative."""

    family = "modular"
    submodular = True

    def __init__(self, weights: Sequence[float]):
        w = _finite(weights, "weights", 1)
        if float(w.min()) < 0.0:
            raise ValueError("modular oracle weights must be nonnegative")
        super().__init__(w.size, monotone=True)
        self.weights = w

    def _build_table(self) -> np.ndarray:
        return _doubled(0.0, self.weights)


class CoverageOracle(SetFunctionOracle):
    """Weighted coverage: element u covers a subset of a weighted universe."""

    family = "coverage"
    submodular = True

    def __init__(self, n: int, covers: Sequence[Iterable[int]],
                 universe_weights: Sequence[float]):
        super().__init__(n, monotone=True)
        if len(covers) != self.n:
            raise ValueError("need one cover per ground element")
        w = _reals(universe_weights, "universe weights")
        if (w.ndim != 1 or not np.isfinite(w).all()
                or float(w.min(initial=0.0)) < 0.0):
            raise ValueError("universe weights must be finite and nonnegative")
        if w.size > 62:
            raise ValueError("universe too large for bitmask covers")
        masks = []
        for cover in covers:
            mask = 0
            for i in cover:
                i = _integer(i, "cover items")
                if not 0 <= i < w.size:
                    raise ValueError(
                        "cover refers to an unknown universe item")
                mask |= 1 << i
            masks.append(mask)
        self.universe_weights = w
        self._cover_masks = tuple(masks)

    @property
    def covers(self) -> tuple:
        """Each element's cover as an ascending tuple of universe items."""
        return tuple(tuple(elements_of(m)) for m in self._cover_masks)

    def _build_table(self) -> np.ndarray:
        # Each mask's union of covers, then its items' weights folded from
        # 0.0 upward: the first k by one lookup into their modular table (a
        # per-item pass adds the same weights in the same order), the rest
        # by a pass each, which adds w[j] or 0.0. The passes read the items
        # past k from one copy of the unions shifted right by k, in the
        # narrowest unsigned type that holds them, shifted one bit further
        # in place after each pass.
        unions = _doubled(0, self._cover_masks, np.bitwise_or, np.int64)
        w = self.universe_weights
        k = min(w.size, self.n)
        tab = _doubled(0.0, w[:k])[unions & ((1 << k) - 1)]
        if w.size > k:
            tail = (unions >> k).astype(
                np.min_scalar_type((1 << (w.size - k)) - 1))
            for wj in w[k:]:
                tab += wj * (tail & 1)
                tail >>= 1
        return tab


class CutOracle(SetFunctionOracle):
    """Undirected weighted cut: f(S) = total weight crossing (S, complement)."""

    family = "cut"
    submodular = True

    def __init__(self, n: int, edges: Sequence[tuple[int, int, float]]):
        super().__init__(n, monotone=False)
        cleaned = []
        for a, b, w in edges:
            a, b = (_integer(v, "edge endpoints") for v in (a, b))
            w = float(_finite(w, "edge weights", 0))
            if a == b:
                raise ValueError("self-loops carry no cut weight")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError("edge endpoint outside ground set")
            if w < 0.0:
                raise ValueError("edge weights must be nonnegative")
            cleaned.append((min(a, b), max(a, b), w))
        self.edges = tuple(cleaned)

    def _build_table(self) -> np.ndarray:
        masks = np.arange(1 << self.n, dtype=np.int64)
        tab = np.zeros(1 << self.n)
        for a, b, w in self.edges:
            tab += w * (((masks >> a) ^ (masks >> b)) & 1)
        return tab


class PerturbedOracle(SetFunctionOracle):
    """Coverage base plus seeded per-subset additive noise, floored at zero.

    With ``monotone_noise`` the noise table is replaced by its running max
    over subsets, so the perturbed function stays monotone (and is certified
    as such); otherwise monotonicity is unknown and should be measured.
    """

    family = "synthetic-perturbed"

    def __init__(self, base: CoverageOracle, delta: float, seed: int,
                 monotone_noise: bool = False):
        if not isinstance(base, CoverageOracle):
            raise ValueError(f"perturbed base must be a coverage oracle, "
                             f"not {type(base).__name__!r}")
        delta = float(_finite(delta, "noise amplitudes", 0))
        if delta < 0.0 or not math.isfinite(2.0 * delta):
            raise ValueError("noise amplitude must lie in [0, max float / 2]")
        if not isinstance(monotone_noise, (bool, np.bool_)):
            raise ValueError(f"monotone_noise: {monotone_noise!r} is not a bool")
        super().__init__(base.n, monotone=True if monotone_noise else None)
        self.base = base
        self.delta = delta
        self.seed = _integer(seed, "seeds")
        self.monotone_noise = bool(monotone_noise)

    def _build_table(self) -> np.ndarray:
        noise = np.random.default_rng(self.seed).uniform(
            -self.delta, self.delta, 1 << self.n)
        if self.monotone_noise:
            _sweep(noise, np.maximum, upward=True)
        return np.maximum(0.0, self.base.table() + noise)


def _doubled(start, steps, op=np.add, dtype=float) -> np.ndarray:
    """The 2^len(steps) table of each mask's left fold by ``op`` from
    ``start`` over ``steps[u]`` for its elements u, in ascending order, by
    subset doubling: out[0] = start, then out[2^u:2^(u+1)] = op(out[:2^u],
    steps[u]) for u = 0, 1, .... A row ``start`` and row steps give one
    row per mask."""
    out = np.empty((1 << len(steps),) + np.shape(start), dtype=dtype)
    out[0] = start
    for u, step in enumerate(steps):
        half = 1 << u
        op(out[:half], step, out=out[half:2 * half])
    return out


def _sweep(tab: np.ndarray, op, upward: bool) -> None:
    """In place over a 2^n table, for u = 0, 1, ...: each mask's entry
    becomes op(its entry, the entry of the mask with bit u flipped), for
    the masks that hold u if ``upward`` (op = max gives the max over
    subsets) and for those without u otherwise (over supersets). The
    entry's own value is op's first argument."""
    for u in range(tab.size.bit_length() - 1):
        view = tab.reshape(-1, 2 << u)
        lo, hi = view[:, :1 << u], view[:, 1 << u:]
        target, other = (hi, lo) if upward else (lo, hi)
        op(target, other, out=target)


@functools.lru_cache(maxsize=None)
def popcounts(n: int) -> np.ndarray:
    """|S| for every subset S of an n-element ground set, by bitmask.
    Read-only."""
    counts = _doubled(0, [1] * n, dtype=np.int64)
    counts.setflags(write=False)
    return counts


def subset_bits(n: int) -> np.ndarray:
    """The (2^n, n) 0/1 float matrix of the cube's vertices: row S is the
    indicator vector of the subset with bitmask S."""
    return _doubled(np.zeros(n), np.eye(n))


def clamp_ratio(best: float) -> float:
    """A minimum ratio clamped to [0, 1], and 1.0 from 1 - REL_TOL up."""
    return 1.0 if best >= 1.0 - REL_TOL else max(0.0, best)


@functools.lru_cache(maxsize=None)
def _gamma_chunks(n: int, chunk: int) -> tuple:
    """The gamma sweep's chunks for ground-set size n: per complement size c
    = n - |A| in ascending order, runs of at most max(1, chunk >> c)
    consecutive sets A of that size (ascending), each as (c, A masks,
    (c, width) complement bits in ascending element order). Read-only."""
    counts = popcounts(n)
    out = []
    for c in range(1, n + 1):
        group = np.nonzero(counts == n - c)[0]
        comp = np.nonzero(((group[:, None] >> np.arange(n)) & 1) == 0)[1]
        bits = 1 << comp.reshape(-1, c).T
        width = max(1, chunk >> c)
        for lo in range(0, group.size, width):
            a = group[lo:lo + width]
            b = np.ascontiguousarray(bits[:, lo:lo + width])
            a.setflags(write=False)
            b.setflags(write=False)
            out.append((c, a, b))
    return tuple(out)


def _gamma(f: SetFunctionOracle) -> float:
    # Sweeps every A against all 2^c sets B of its complement, one chunk of
    # _gamma_chunks at a time. A chunk holds one column per A and one row
    # per B, B ascending; row 0 is A itself, and doubling over the
    # complement bits builds S = A | B and the singleton sum side by side,
    # one row per B. The ratios are a plain divide, with the skipped
    # pairs (f(B|A) <= REL_TOL * scale) set to inf, and one flat min per
    # chunk. The sweep stops at the first chunk whose min is <= 0: gamma is
    # then max(0.0, min) = 0.0 whatever the later chunks hold.
    _within("gamma", f.n)
    tab = f.table()
    thr = _allowance(float(np.abs(tab).max()))
    best = math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, a, bits in _gamma_chunks(f.n, _GAMMA_CHUNK):
            base = tab[a]
            marg = tab[a | bits] - base
            masks = _doubled(a, bits, np.bitwise_or, np.int64)
            sums = _doubled(np.zeros(a.size), marg)
            denom = tab[masks]
            denom -= base
            ratios = np.divide(sums, denom, out=sums)
            np.copyto(ratios, math.inf, where=denom <= thr)
            best = min(best, float(ratios.min()))
            if best <= 0.0:
                return 0.0
    return clamp_ratio(best)


def _m(f: SetFunctionOracle) -> float:
    # uncapped: measure_ratios runs it only after the gamma check
    tab = f.table()
    pos = tab > _allowance(float(tab.max()))
    if not bool(pos.any()):
        return 1.0  # no positive value (identically zero): by convention
    sup_min = tab.copy()
    _sweep(sup_min, np.minimum, upward=False)
    return clamp_ratio(float((sup_min[pos] / tab[pos]).min()))


@dataclass(frozen=True)
class RatioMeasurement:
    """Measured submodularity ratio gamma and monotonicity ratio m.

    ``nonmonotone_caveat`` flags that gamma was measured on a non-monotone
    oracle over positive-marginal pairs only.
    """

    gamma: float
    m: float
    nonmonotone_caveat: bool


def measure_ratios(f: SetFunctionOracle) -> RatioMeasurement:
    """Exact gamma and m of f, both clamped to [0, 1], values within
    relative 1e-9 of 1 snapping to exactly 1.

    gamma is the largest ratio with sum_{u in B} f(u|A) >= gamma * f(B|A)
    for all A, B, skipping pairs with f(B|A) <= 1e-9 * max_S |f(S)|
    (vacuous for monotone f, where f(B|A) <= 0). m is the minimum of
    f(T)/f(S) over S ⊆ T with f(S) > 0, and 1 for the identically-zero
    oracle. A certified submodular family (``f.submodular``: modular,
    coverage, cut) has gamma = 1.0 exactly, with no sweep; any other oracle
    is swept, and the sweep stops at the first ratio <= 0, where gamma
    reaches its floor 0. A certified monotone oracle (``f.monotone is
    True``: modular, coverage, perturbed with monotone noise) has m = 1.0
    exactly, with no sweep. That is exact in floats: a modular or coverage
    table folds nonnegative terms in ascending order, a superset's fold
    only adds terms, and rounding is monotone; monotone noise adds a
    running max over subsets to such a table and takes a max with 0. So
    f(S) <= f(T) bit for bit whenever S ⊆ T, the least superset value of
    each S is f(S) itself, and the sweep's m is 1.0. The budget's gamma
    entry is checked before any gamma or m sweep, certified families
    included.
    """
    _within("gamma", f.n)
    gamma = 1.0 if f.submodular else _gamma(f)
    m = 1.0 if f.monotone is True else _m(f)
    return RatioMeasurement(gamma=gamma, m=m, nonmonotone_caveat=m < 1.0)


# ---------------------------------------------------------------------------
# seeded instance generators


def random_modular(n: int, seed: int) -> ModularOracle:
    rng = np.random.default_rng(seed)
    return ModularOracle(rng.uniform(0.2, 1.8, n))


def _words(rng: np.random.Generator, block: int):
    """The generator's 32-bit stream as ints, read ``block`` words at a
    time: the words that ``rng.integers(0, 2**32, dtype=np.uint32)`` would
    return one call at a time."""
    while True:
        yield from rng.integers(0, 1 << 32, size=block,
                                dtype=np.uint32).tolist()


def _bounded(words, top: int) -> int:
    """numpy's bounded draw of an int in [0, top], 0 <= top < 2^32, from
    the 32-bit stream ``words``: what ``Generator.integers(0, top + 1)``
    returns, taking the same words. A range of 0 takes no word. Otherwise
    Lemire's rule: the high half of word * (top + 1), unless the low half
    falls below 2^32 mod (top + 1), which rejects the word and takes the
    next one."""
    if not top:
        return 0
    span = top + 1
    prod = next(words) * span
    low = prod & 0xFFFFFFFF
    if low < span:  # the threshold 2^32 mod span is below span
        threshold = (1 << 32) % span
        while low < threshold:
            prod = next(words) * span
            low = prod & 0xFFFFFFFF
    return prod >> 32


def random_coverage(n: int, seed: int) -> CoverageOracle:
    """m = max(6, int(1.4 n)) universe items weighted uniformly on [0.25,
    1.25), and per element the cover ``sorted(rng.choice(m, size,
    replace=False))`` of ``size = rng.integers(1, max(2, m // 3) + 1)``
    items, drawn by numpy's rules from one block of the stream (see the
    module docstring): Floyd's sample takes v in [0, j] for j = m - size
    .. m - 1, or j if v is taken already, and the shuffle's draws in [0,
    i] for i = size - 1 .. 1 are taken and dropped."""
    rng = np.random.default_rng(seed)
    m = max(6, int(1.4 * n))
    weights = rng.uniform(0.25, 1.25, m)
    top = max(2, m // 3)
    words = _words(rng, 2 * n * top)  # an element takes <= 2 * top words
    covers = []
    for _ in range(n):
        size = 1 + _bounded(words, top - 1)
        taken = set()
        for j in range(m - size, m):
            v = _bounded(words, j)
            taken.add(j if v in taken else v)
        for i in range(size - 1, 0, -1):
            _bounded(words, i)
        covers.append(sorted(taken))
    return CoverageOracle(n, covers, weights)


def random_cut(n: int, seed: int) -> CutOracle:
    if n < 2:
        raise ValueError("cut instances need n >= 2")
    rng = np.random.default_rng(seed)
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.5:
                edges.append((a, b, float(rng.uniform(0.1, 1.0))))
    if not edges:
        edges.append((0, 1, float(rng.uniform(0.1, 1.0))))
    return CutOracle(n, edges)


def random_perturbed(n: int, delta: float, seed: int,
                     monotone: bool = False) -> PerturbedOracle:
    return PerturbedOracle(random_coverage(n, seed ^ 0x5EED), delta, seed,
                           monotone_noise=monotone)
