"""Probabilistic asynchronous CA driven by template matching.

Each micro time-step updates one cell: if any template matches the cell's
outer neighborhood, the cell is adjusted to a matching template's center
value; otherwise noise may flip it. A generation is n^2 micro-steps.
micro_step is the reference definition of one step. Under random selection
a generation draws only the micro-steps that change a cell (the n-fold way
of Bortz, Kalos & Lebowitz, J. Comput. Phys. 17, 1975): the same chain in
law, without the null steps. Under both selections that sampler (_Buckets)
holds every cell's window code and the counters TPS is read from.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import (WINDOW_WEIGHTS, Pattern, check_size, pack, window_codes,
                   window_indices)
# ca does not call tps_of_bits; perfbench's traced mode swaps ca.tps_of_bits
from .payoff import DEFAULT_PARAMS, PayoffParams, pair_count, tps_of_bits
from .templates import TemplateSet


@dataclass(frozen=True)
class CaConfig:
    """One CA rule and run setup. It owns the rule's tables, hit_table and
    rate_table: plain attributes, as a cached property slows micro_step."""

    templates: TemplateSet
    pi_01: float = 0.04
    pi_10: float = 1.0
    selection: str = "random"  # "random" or "sequential"
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
        if self.selection not in ("random", "sequential"):
            raise ValueError(f"unknown selection mode {self.selection!r}")
        object.__setattr__(self, "hit_table", _hit_table(self.templates))
        object.__setattr__(self, "rate_table", _rate_table(
            self.templates, self.pi_01, self.pi_10))


@dataclass
class CaState:
    """Mutable per-run state: pattern cells, hit flags, generation counter.

    cells change only through micro_step and generation, each flip through
    _flip, which keeps the sampler current. hits is written only by
    micro_step; changes counts the cell flips of both. The sampler counts
    the defectors and defector pairs: run_ca reads each generation's TPS off
    them, and is_stable answers "not stable" from the bucket sizes.
    """

    n: int
    cells: list[int]
    hits: list[int]
    t: int = 0
    cursor: int = 0  # next cell under sequential selection
    changes: int = 0
    # per cell: its window's flat indices (_window_flat_indices)
    _windows: tuple = field(init=False, repr=False, compare=False)
    # cells grouped by change probability (see _sampler), kept by _flip
    _buckets: _Buckets | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self._windows = _window_flat_indices(self.n)

    @property
    def pattern(self) -> Pattern:
        return Pattern(self.n, tuple(self.cells))


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
def _hit_table(ts: TemplateSet):
    """Per 8-bit outer code: centers of outer-matching templates.

    Returns (match_centers, full_ok) where match_centers[code] lists the
    center value of every template whose outer ring equals the code, and
    full_ok is a (256, 2) bool array with full_ok[code, a] true iff the code
    has matching templates and every one of them has center a, so that a
    micro-step on a cell in state a with that ring can never change it.
    """
    match_centers: list[tuple[int, ...]] = [()] * 256
    buckets: dict[int, list[int]] = {}
    for t in ts:
        buckets.setdefault(t.outer_code(), []).append(t.center)
    full_ok = np.zeros((256, 2), dtype=bool)
    for code, centers in buckets.items():
        match_centers[code] = tuple(centers)
        if len(set(centers)) == 1:
            full_ok[code, centers[0]] = True
    return tuple(match_centers), full_ok


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
    match_centers, _ = _hit_table(ts)
    prob = []
    for code in range(512):
        centers, a = match_centers[code & 255], code >> 8
        if centers:
            prob.append(sum(c != a for c in centers) / len(centers))
        else:
            prob.append(pi_10 if a else pi_01)
    rates = tuple(sorted(set(prob) - {0.0}, reverse=True))
    return rates, tuple(rates.index(p) if p else -1 for p in prob)


class _Buckets:
    """Cells grouped by nonzero change probability under one rate table.

    codes[c] is cell c's window code, slot[c] its bucket (-1: rate 0) and
    pos[c] its index in members[slot[c]]; members lists are kept by
    swap-remove, so their order is arbitrary. ones and pairs are the
    pattern's defectors and 8-neighbor defector pairs (E of pair_count),
    so TPS reads off them in O(1).
    """

    __slots__ = ("table", "codes", "slot", "pos", "members", "ones", "pairs")

    def __init__(self, cells, n: int, table):
        rates, bucket = table
        self.table = table
        codes = window_codes(cells, n)
        slot = np.asarray(bucket)[codes]
        pos = np.zeros(n * n, dtype=np.intp)
        self.members = []
        for b in range(len(rates)):
            m = np.flatnonzero(slot == b)  # ascending cell order
            pos[m] = np.arange(len(m))
            self.members.append(m.tolist())
        self.codes, self.slot, self.pos = (codes.tolist(), slot.tolist(),
                                           pos.tolist())
        board = pack(cells)
        self.ones, self.pairs = board.bit_count(), pair_count(board, n)


@lru_cache(maxsize=None)
def _window_flat_indices(n: int):
    """Per cell: the 9 flat indices of its window, MOORE_OFFSETS order."""
    index = list(range(n * n))  # one int object per cell, shared by rows
    return tuple(tuple(map(index.__getitem__, row.tolist()))
                 for row in window_indices(n))


# Flipping a cell toggles these bits in the codes of its window's cells: the
# center bit of its own code, and for the outer cell in slot k the bit of
# the point-mirrored slot 7 - k, where that neighbor sees the cell.
_FLIP_BITS = (WINDOW_WEIGHTS[0], *WINDOW_WEIGHTS[:0:-1])


def init_ca(cfg: CaConfig, n: int, rng: random.Random,
            start: Pattern | None = None) -> CaState:
    """Random Bernoulli(init_density) start, or adopt an explicit pattern."""
    if start is not None:
        n = start.n
        cells = list(start.cells)
    else:
        cells = [1 if rng.random() < cfg.init_density else 0
                 for _ in range(n * n)]
    return CaState(n=n, cells=cells, hits=[0] * (n * n))


def _sampler(state: CaState, cfg: CaConfig) -> _Buckets:
    """The state's sampler under cfg's rate table, rebuilt when it is
    missing or was built for another table."""
    bk = state._buckets
    if bk is None or bk.table is not cfg.rate_table:
        bk = state._buckets = _Buckets(state.cells, state.n, cfg.rate_table)
    return bk


def _flip(state: CaState, bk: _Buckets, cell: int) -> None:
    """Flip one cell and keep the sampler current: ones and pairs move by
    one and by its defector neighbors, and the 9 cells whose window holds
    it move between buckets."""
    cells = state.cells
    codes, slot, pos, members = bk.codes, bk.slot, bk.pos, bk.members
    bucket = bk.table[1]
    d = 1 - 2 * cells[cell]  # +1 for a new defector, -1 for a lost one
    cells[cell] += d
    bk.ones += d
    # its defector neighbors, read before its own code changes
    bk.pairs += d * (codes[cell] & 255).bit_count()
    state.changes += 1
    for j, bit in zip(state._windows[cell], _FLIP_BITS):
        code = codes[j] ^ bit
        codes[j] = code
        new, old = bucket[code], slot[j]
        if new != old:
            if old >= 0:
                m = members[old]
                last = m.pop()
                if last != j:
                    m[pos[j]] = last
                    pos[last] = pos[j]
            if new >= 0:
                m = members[new]
                pos[j] = len(m)
                m.append(j)
            slot[j] = new


def micro_step(state: CaState, cfg: CaConfig, rng: random.Random) -> bool:
    """Update one cell; returns True if its pattern state changed."""
    n2 = state.n * state.n
    if cfg.selection == "sequential":
        cell = state.cursor
        state.cursor = (cell + 1) % n2
    else:
        cell = rng.randrange(n2)
    bk = _sampler(state, cfg)
    code = bk.codes[cell]
    centers = cfg.hit_table[0][code & 255]
    old = code >> 8
    if centers:
        state.hits[cell] = 1
        new = centers[0] if len(centers) == 1 else rng.choice(centers)
    else:
        state.hits[cell] = 0
        new = old
        if rng.random() < (cfg.pi_10 if old else cfg.pi_01):
            new = 1 - old
    if new == old:
        return False
    _flip(state, bk, cell)
    return True


def _jump_generation(state: CaState, cfg: CaConfig,
                     rng: random.Random) -> bool:
    """n^2 random-selection micro-steps in law, drawing only the changes.

    A micro-step changes a cell with probability p = (sum of the cells'
    rates) / n^2, and the cell it changes is drawn with probability
    proportional to its rate (a bucket by weight, then a member uniformly).
    The null steps before that change are a geometric run, drawn next and
    independently: if the run reaches the end of the generation, the
    generation ends with no further change (the run is memoryless).
    Otherwise the cell flips (_flip).
    """
    bk = _sampler(state, cfg)
    rates, members = bk.table[0], bk.members
    uniform, randrange = rng.random, rng.randrange
    log, log1p = math.log, math.log1p
    n2 = state.n * state.n
    left = n2
    before = state.changes
    while True:
        total = 0.0
        for r, m in zip(rates, members):
            total += r * len(m)
        if not total:
            break
        x = uniform() * total
        for r, m in zip(rates, members):
            x -= r * len(m)
            if x < 0.0:
                break
        else:  # x rounded past the last weight
            m = next(m for m in reversed(members) if m)
        cell = m[randrange(len(m))]
        p = total / n2
        if p >= 1.0:
            wait = 0.0
        else:
            q = log1p(-p)  # 0.0 only when p underflows: no change in reach
            wait = log(1.0 - uniform()) / q if q else math.inf
        if wait >= left:
            break
        left -= int(wait) + 1
        _flip(state, bk, cell)
    return state.changes > before


def generation(state: CaState, cfg: CaConfig, rng: random.Random) -> bool:
    """Advance n^2 micro-steps; returns True if any cell changed.

    Sequential selection runs micro_step n^2 times; random selection draws
    the same chain in law, skipping the null steps (_jump_generation).
    """
    if cfg.selection == "random":
        changed = _jump_generation(state, cfg, rng)
    else:
        changed = False
        for _ in range(state.n * state.n):
            if micro_step(state, cfg, rng):
                changed = True
    state.t += 1
    return changed


def is_stable(state: CaState, cfg: CaConfig) -> bool:
    """True iff every cell's outer ring matches only templates whose center
    equals the cell (an absorbing state).

    Such a cell changes with probability 0, so a stable state leaves every
    bucket of the sampler empty: a nonempty one answers False in O(1), and
    only an empty sampler (stable, or frozen by zero rates) runs the full
    check on its window codes.
    """
    bk = _sampler(state, cfg)
    if any(bk.members):
        return False
    _, full_ok = cfg.hit_table
    codes = np.asarray(bk.codes)
    return bool(full_ok[codes & 255, codes >> 8].all())


def run_ca(cfg: CaConfig, n: int | None = None, start: Pattern | None = None,
           params: PayoffParams = DEFAULT_PARAMS,
           on_generation=None) -> CaRunResult:
    """Evolve up to t_limit generations, evaluating TPS/W after each.

    The evaluation never influences the evolution. A run ends early once the
    pattern is stable (see is_stable; nothing can change after that) or, if
    cfg.target_tps is set, once TPS reaches it. TPS is read off the
    sampler's counters, in tps_of_bits's expression, so the values are the
    same.
    """
    if start is None:
        if n is None:
            raise ValueError("need a grid size or a start pattern")
        check_size(n)
    elif n is not None and n != start.n:
        raise ValueError(f"grid size {n} disagrees with the "
                         f"{start.n}x{start.n} start pattern")
    rng = random.Random(cfg.seed)
    state = init_ca(cfg, n if n is not None else 0, rng, start)
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
