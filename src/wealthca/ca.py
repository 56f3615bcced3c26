"""Probabilistic asynchronous CA driven by template matching.

Each micro time-step updates one cell: if any template matches the cell's
outer neighborhood, the cell is adjusted to a matching template's center
value; otherwise noise may flip it. A generation is n^2 micro-steps.
micro_step is the reference definition of one step.

Every step runs one flip loop (_apply) over one of two pick sources, each
a generator of the cells to flip. _steps makes reference micro-steps: one
for micro_step, n^2 for a sequential generation. _jumps draws a random-
selection generation with only the micro-steps that change a cell (the
n-fold way of Bortz, Kalos & Lebowitz, J. Comput. Phys. 17, 1975): the
same chain in law, without the null steps. The sampler (_Buckets), which
the flip loop keeps current, holds every cell's window code and the
counters TPS is read from.
"""

from __future__ import annotations

import math
import random
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from itertools import chain, repeat

import numpy as np

from .grid import WINDOW_WEIGHTS, Pattern, check_size, window_indices
# ca does not call tps_of_bits; perfbench's traced mode swaps ca.tps_of_bits
from .payoff import DEFAULT_PARAMS, PayoffParams, tps_of_bits
from .templates import TemplateSet

SELECTIONS = ("random", "sequential")  # micro-step cell selection modes


@dataclass(frozen=True)
class CaConfig:
    """One CA rule and run setup. It owns the rule's tables, hit_table and
    rate_table: plain attributes, as a cached property slows micro_step."""

    templates: TemplateSet
    pi_01: float = 0.04
    pi_10: float = 1.0
    selection: str = "random"  # one of SELECTIONS
    init_density: float = 0.25
    t_limit: int = 100
    seed: int = 0
    target_tps: float | None = None  # stop a run early once reached

    def __post_init__(self):
        for name in ("pi_01", "pi_10", "init_density"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.t_limit < 0:
            raise ValueError("t_limit must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.target_tps is not None and math.isnan(self.target_tps):
            raise ValueError("target_tps must not be NaN")
        if self.selection not in SELECTIONS:
            raise ValueError(f"unknown selection mode {self.selection!r}")
        object.__setattr__(self, "hit_table", _hit_table(self.templates))
        object.__setattr__(self, "rate_table", _rate_table(
            self.templates, self.pi_01, self.pi_10))


@dataclass
class CaState:
    """Mutable per-run state: pattern cells, generation counter, sampler.

    cells change only through micro_step and generation, each flip through
    _apply, which keeps the sampler current; changes counts the flips. The
    sampler counts the defectors and defector pairs: run_ca reads each
    generation's TPS off them, and is_stable answers "not stable" from the
    bucket sizes.
    """

    n: int
    cells: list[int]
    hits: InitVar[list[int] | None] = None  # accepted, not stored
    t: int = 0
    cursor: int = 0  # next cell under sequential selection
    changes: int = 0
    # cells grouped by change probability (see _sampler), kept by _apply
    _buckets: _Buckets | None = field(default=None, repr=False, compare=False)

    @property
    def pattern(self) -> Pattern:
        return Pattern(self.n, self.cells)


@dataclass(frozen=True)
class TraceRow:
    t: int
    tps: float
    wealth: float
    stable: bool


@dataclass(frozen=True)
class CaRunResult:
    final: Pattern
    tps_final: float
    w_max: float
    t_max: int
    stable: bool
    generations: int
    stop_reason: str  # "stable", "target" or "t_limit"
    changes: int  # cell flips over the run
    trace: tuple[TraceRow, ...] = field(repr=False)


@lru_cache(maxsize=None)
def _hit_table(ts: TemplateSet) -> tuple[tuple[int, ...], ...]:
    """Per 9-bit window code: the center value of every template whose
    outer ring equals the code's ring (code & 255), in template order."""
    rings: dict[int, tuple[int, ...]] = {}
    for t in ts:
        rings[t.outer_code()] = rings.get(t.outer_code(), ()) + (t.center,)
    return tuple(rings.get(code & 255, ()) for code in range(512))


@lru_cache(maxsize=None)
def _rate_table(ts: TemplateSet, pi_01: float, pi_10: float):
    """Change probability of a micro-step, per 9-bit window code.

    Returns (rates, bucket): rates holds the distinct nonzero probabilities
    (at most four: 1, 1/2, pi_01, pi_10) and a micro-step on a cell whose
    window code is c changes it with probability rates[bucket[c]], or never
    when bucket[c] is -1. The probability is the share of outer-matching
    template centers that differ from the cell, or, when no template
    matches, pi_01 for a 0 cell and pi_10 for a 1 cell.
    """
    prob = []
    for code, centers in enumerate(_hit_table(ts)):
        a = code >> 8
        if centers:
            prob.append(sum(c != a for c in centers) / len(centers))
        else:
            prob.append(pi_10 if a else pi_01)
    rates = tuple(sorted(set(prob) - {0.0}, reverse=True))
    return rates, tuple(rates.index(p) if p else -1 for p in prob)


class _Buckets:
    """Cells grouped by nonzero change probability under one rate table.

    It is built from a Pattern, so a bad size or bad cells are refused
    before any per-size table is made. codes[c] is cell c's window code
    (Pattern.codes), windows[c] its window's flat indices and pos[c] its
    index in members[bucket[codes[c]]] when that bucket is not -1 (rate 0);
    members lists are kept by swap-remove, so their order is arbitrary.
    ones and pairs are the pattern's defectors and 8-neighbor defector
    pairs (E of payoff.pair_count), so TPS reads off them in O(1).
    """

    __slots__ = ("table", "windows", "codes", "pos", "members", "ones",
                 "pairs")

    def __init__(self, p: Pattern, table):
        rates, bucket = table
        self.table = table
        codes = p.codes.reshape(-1)
        self.windows = _window_flat_indices(p.n)
        # a defector pair lies in the outer rings of both its cells
        rings = np.bitwise_count(codes[codes >= 256] & 255)
        self.ones, self.pairs = len(rings), int(rings.sum()) // 2
        slot = np.asarray(bucket)[codes]
        pos = np.zeros(len(codes), dtype=np.intp)
        self.members = []
        for b in range(len(rates)):
            m = np.flatnonzero(slot == b)  # ascending cell order
            pos[m] = np.arange(len(m))
            self.members.append(m.tolist())
        self.codes, self.pos = codes.tolist(), pos.tolist()


@lru_cache(maxsize=None)  # the CA's only per-size cache
def _window_flat_indices(n: int):
    """Per cell: the 9 flat indices of its window, MOORE_OFFSETS order."""
    index = list(range(n * n))  # one int object per cell, shared by rows
    return tuple(tuple(map(index.__getitem__, row.tolist()))
                 for row in window_indices(n))


# Flipping a cell toggles these bits in the codes of its window's cells: the
# center bit of its own code, and for the outer cell in slot k the bit of
# the point-mirrored slot 7 - k, where that neighbor sees the cell.
_FLIP_BITS = (WINDOW_WEIGHTS[0], *WINDOW_WEIGHTS[:0:-1])


def init_ca(cfg: CaConfig, n: int | None, rng: random.Random,
            start: Pattern | None = None) -> CaState:
    """A run's first state: start if given, else Bernoulli(init_density)
    cells from rng. The one size-and-start check, made before any draw: n
    is required without a start, must be >= 3 (check_size), and must equal
    start.n when both are given; a breach raises ValueError."""
    if start is None:
        if n is None:
            raise ValueError("need a grid size or a start pattern")
        check_size(n)
        cells = [1 if rng.random() < cfg.init_density else 0
                 for _ in range(n * n)]
    elif n is not None and n != start.n:
        raise ValueError(f"grid size {n} disagrees with the "
                         f"{start.n}x{start.n} start pattern")
    else:
        n, cells = start.n, list(start.cells)
    return CaState(n=n, cells=cells)


def _sampler(state: CaState, cfg: CaConfig) -> _Buckets:
    """The state's sampler under cfg's rate table, rebuilt when it is
    missing or was built for another table."""
    bk = state._buckets
    if bk is None or bk.table is not cfg.rate_table:
        bk = state._buckets = _Buckets(state.pattern, cfg.rate_table)
    return bk


def _apply(state: CaState, bk: _Buckets, picks) -> int:
    """Flip each cell that picks yields, keeping the sampler current, and
    return the number of flips: the CA's one flip loop.

    A flip moves ones by one and pairs by the cell's defector neighbors,
    and moves the 9 cells whose window holds it between buckets. picks is
    a lazy source (_steps or _jumps) that reads the live codes and members,
    so each pick sees every flip before it. The counters stay in locals
    until the source is spent, or raises.
    """
    cells, codes, pos, members = state.cells, bk.codes, bk.pos, bk.members
    windows, bucket = bk.windows, bk.table[1]
    ones, pairs, flips = bk.ones, bk.pairs, 0
    try:
        for cell in picks:
            d = 1 - 2 * cells[cell]  # +1: a new defector, -1: a lost one
            cells[cell] += d
            ones += d
            # its defector neighbors, read before its own code changes
            pairs += d * (codes[cell] & 255).bit_count()
            flips += 1
            for j, bit in zip(windows[cell], _FLIP_BITS):
                was = codes[j]
                codes[j] = code = was ^ bit
                old, new = bucket[was], bucket[code]
                if new != old:
                    if old >= 0:
                        m = members[old]
                        last = m.pop()
                        if last != j:
                            i = pos[j]
                            m[i] = last
                            pos[last] = i
                    if new >= 0:
                        m = members[new]
                        pos[j] = len(m)
                        m.append(j)
    finally:
        bk.ones, bk.pairs = ones, pairs
        state.changes += flips
    return flips


def _steps(state: CaState, cfg: CaConfig, rng: random.Random, count: int):
    """Yield the cells that count reference micro-steps change.

    Each step takes the cell at the cursor (sequential) or a uniform one
    (random). If templates match its outer ring, the cell takes a matching
    template's center; otherwise noise flips a 1 with probability pi_10
    and a 0 with pi_01. The cursor moves past all count cells up front.
    """
    codes, centers_of = state._buckets.codes, cfg.hit_table
    pi_01, pi_10 = cfg.pi_01, cfg.pi_10
    uniform, choice = rng.random, rng.choice
    n2 = state.n * state.n
    if cfg.selection == "sequential":  # count <= n^2: at most one wrap
        first, stop = state.cursor, state.cursor + count
        state.cursor = stop % n2
        picks = chain(range(first, min(stop, n2)), range(stop - n2))
    else:  # each cell is drawn when its step comes
        picks = map(rng.randrange, repeat(n2, count))
    for cell in picks:
        code = codes[cell]
        centers = centers_of[code]
        old = code >> 8
        if centers:
            new = centers[0] if len(centers) == 1 else choice(centers)
        else:
            new = old ^ (uniform() < (pi_10 if old else pi_01))
        if new != old:
            yield cell


def micro_step(state: CaState, cfg: CaConfig, rng: random.Random) -> bool:
    """Update one cell; returns True if its pattern state changed."""
    # the sampler first: a bad state is refused unchanged
    return _apply(state, _sampler(state, cfg), _steps(state, cfg, rng, 1)) > 0


def _jumps(state: CaState, rng: random.Random):
    """Yield the changes of n^2 random-selection micro-steps, in law.

    A micro-step changes a cell with probability p = (sum of the cells'
    rates) / n^2, and the cell it changes is drawn with probability
    proportional to its rate (a bucket by weight, then a member uniformly).
    The null steps before that change are a geometric run, drawn next and
    independently: if the run reaches the end of the generation, the
    generation ends with no further change (the run is memoryless).
    Otherwise the cell is yielded, to be flipped before the next draw.
    """
    members = state._buckets.members
    # (rate, member list) per bucket; the lists are live, kept by _apply
    buckets = tuple(zip(state._buckets.table[0], members))
    uniform, choice = rng.random, rng.choice
    log, log1p = math.log, math.log1p
    n2 = state.n * state.n
    left = n2
    while True:
        total = 0.0
        for r, m in buckets:
            total += r * len(m)
        if not total:
            return
        x = uniform() * total
        for r, m in buckets:
            x -= r * len(m)
            if x < 0.0:
                break
        else:  # x rounded past the last weight
            m = next(m for m in reversed(members) if m)
        cell = choice(m)
        p = total / n2
        if p >= 1.0:
            wait = 0.0
        else:
            q = log1p(-p)  # 0.0 only when p underflows: no change in reach
            wait = log(1.0 - uniform()) / q if q else math.inf
        if wait >= left:
            return
        left -= int(wait) + 1
        yield cell


def generation(state: CaState, cfg: CaConfig, rng: random.Random) -> bool:
    """Advance n^2 micro-steps; returns True if any cell changed.

    Sequential selection runs the reference steps n^2 times (_steps);
    random selection draws the same chain in law, skipping the null steps
    (_jumps). Either way the changes go through _apply.
    """
    bk = _sampler(state, cfg)
    if cfg.selection == "random":
        picks = _jumps(state, rng)
    else:
        picks = _steps(state, cfg, rng, state.n * state.n)
    changed = _apply(state, bk, picks) > 0
    state.t += 1
    return changed


def is_stable(state: CaState, cfg: CaConfig) -> bool:
    """True iff every cell's outer ring matches only templates whose center
    equals the cell (an absorbing state).

    Such a cell has rate 0, so a stable state leaves every bucket of the
    sampler empty; then an unmatched cell has rate 0 only by zero noise,
    so the state is stable iff every ring matches.
    """
    bk = _sampler(state, cfg)
    return not any(bk.members) and all(map(cfg.hit_table.__getitem__,
                                           bk.codes))


def run_ca(cfg: CaConfig, n: int | None = None, start: Pattern | None = None,
           params: PayoffParams = DEFAULT_PARAMS,
           on_generation=None) -> CaRunResult:
    """Evolve up to t_limit generations, evaluating TPS/W after each.

    The evaluation never influences the evolution. A run ends early once the
    pattern is stable (see is_stable; nothing can change after that) or, if
    cfg.target_tps is set, once TPS reaches it. TPS is read off the
    sampler's counters, in tps_of_bits's expression, so the values are the
    same. init_ca checks n and start before generation 0.
    """
    rng = random.Random(cfg.seed)
    state = init_ca(cfg, n, rng, start)
    bk = _sampler(state, cfg)
    area = state.n * state.n
    c0, c1, c2 = params.pair_sum
    trace = []
    while True:
        total = c0 * area + c1 * bk.ones + c2 * bk.pairs
        last = TraceRow(state.t, total, total / (params.k * area),
                        is_stable(state, cfg))
        trace.append(last)
        if on_generation is not None:
            on_generation(state)
        if last.stable:
            stop_reason = "stable"
        elif cfg.target_tps is not None and total >= cfg.target_tps:
            stop_reason = "target"
        elif state.t >= cfg.t_limit:
            stop_reason = "t_limit"
        else:
            generation(state, cfg, rng)
            continue
        break
    best = max(trace, key=lambda row: row.wealth)
    return CaRunResult(
        final=state.pattern,
        tps_final=last.tps,
        w_max=best.wealth,
        t_max=best.t,
        stable=last.stable,
        generations=state.t,
        stop_reason=stop_reason,
        changes=state.changes,
        trace=tuple(trace),
    )
