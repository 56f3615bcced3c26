"""Probabilistic asynchronous CA driven by template matching.

Each micro time-step updates one cell: if any template matches the cell's
outer neighborhood, the cell is adjusted to a matching template's center
value; otherwise noise may flip it. A generation is n^2 micro-steps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import Pattern, check_size, pack, window_codes, window_indices
from .payoff import DEFAULT_PARAMS, PayoffParams, tps_of_bits
from .templates import TemplateSet


@dataclass(frozen=True)
class CaConfig:
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


@dataclass
class CaState:
    """Mutable per-run state: pattern cells, hit flags, generation counter."""

    n: int
    cells: list[int]
    hits: list[int]
    t: int = 0
    cursor: int = 0  # next cell under sequential selection
    # per-run lookup caches, filled on first micro_step
    _match_centers: tuple | None = field(default=None, repr=False, compare=False)
    _outer: tuple | None = field(default=None, repr=False, compare=False)

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
def _outer_flat_indices(n: int):
    """Per cell: the 8 outer-neighbor flat indices, template bit order."""
    idx = window_indices(n)[:, 1:]
    return tuple(tuple(int(v) for v in row) for row in idx)


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


def micro_step(state: CaState, cfg: CaConfig, rng: random.Random) -> bool:
    """Update one cell; returns True if its pattern state changed."""
    n2 = state.n * state.n
    if cfg.selection == "sequential":
        cell = state.cursor
        state.cursor = (cell + 1) % n2
    else:
        cell = rng.randrange(n2)
    if state._match_centers is None:
        state._match_centers = _hit_table(cfg.templates)[0]
        state._outer = _outer_flat_indices(state.n)
    outer = state._outer[cell]
    cells = state.cells
    code = (cells[outer[0]] | cells[outer[1]] << 1 | cells[outer[2]] << 2
            | cells[outer[3]] << 3 | cells[outer[4]] << 4
            | cells[outer[5]] << 5 | cells[outer[6]] << 6
            | cells[outer[7]] << 7)
    centers = state._match_centers[code]
    old = cells[cell]
    if centers:
        state.hits[cell] = 1
        new = centers[0] if len(centers) == 1 else rng.choice(centers)
        cells[cell] = new
        return new != old
    state.hits[cell] = 0
    if old == 0:
        if rng.random() < cfg.pi_01:
            cells[cell] = 1
            return True
    else:
        if rng.random() < cfg.pi_10:
            cells[cell] = 0
            return True
    return False


def generation(state: CaState, cfg: CaConfig, rng: random.Random) -> bool:
    """Run n^2 micro-steps; returns True if any cell changed."""
    changed = False
    for _ in range(state.n * state.n):
        if micro_step(state, cfg, rng):
            changed = True
    state.t += 1
    return changed


def is_stable(state: CaState, cfg: CaConfig) -> bool:
    """True iff every cell's outer ring matches only templates whose center
    equals the cell (an absorbing state)."""
    _, full_ok = _hit_table(cfg.templates)
    codes = window_codes(state.cells, state.n)
    return bool(full_ok[codes & 255, codes >> 8].all())


def run_ca(cfg: CaConfig, n: int | None = None, start: Pattern | None = None,
           params: PayoffParams = DEFAULT_PARAMS,
           on_generation=None) -> CaRunResult:
    """Evolve up to t_limit generations, evaluating TPS/W after each.

    The evaluation never influences the evolution. A run ends early once the
    pattern is stable (see is_stable; nothing can change after that) or, if
    cfg.target_tps is set, once TPS reaches it.
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
    area = state.n * state.n

    def evaluate() -> TraceRow:
        total = tps_of_bits(pack(state.cells), state.n, params)
        return TraceRow(state.t, total, total / (params.k * area),
                        is_stable(state, cfg))

    trace = [evaluate()]
    if on_generation is not None:
        on_generation(state)
    for _ in range(cfg.t_limit):
        if trace[-1].stable:
            break
        if cfg.target_tps is not None and trace[-1].tps >= cfg.target_tps:
            break
        generation(state, cfg, rng)
        trace.append(evaluate())
        if on_generation is not None:
            on_generation(state)

    best = max(trace, key=lambda row: row.wealth)
    return CaRunResult(
        final=state.pattern,
        tps_final=trace[-1].tps,
        w_max=best.wealth,
        t_max=best.t,
        stable=trace[-1].stable,
        generations=state.t,
        trace=tuple(trace),
    )
