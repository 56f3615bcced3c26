"""Structure analyzers, closed-form optima, exhaustive oracle, experiments."""

from __future__ import annotations

import dataclasses
import functools
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ca import CaConfig, run_ca
from .ga import GaConfig, run_ga
from .grid import (MOORE_OFFSETS, WINDOW_WEIGHTS, Pattern, check_int,
                   check_size, pack_rows, symmetry_images)
from .payoff import DEFAULT_PARAMS, PayoffParams, tps_of_boards

# Unique 5x5 optimum (up to symmetry), oriented so that border growth below
# keeps the added dominoes consistent across the torus seam.
_BASE5 = (
    "00000",
    "10110",
    "10000",
    "00010",
    "11010",
)

ORACLE_MAX_N = 5


@dataclass(frozen=True)
class StructureReport:
    points: int
    dominoes: int
    singularities: int
    ones: int
    zero_cells: int


# Window-code bit (grid.WINDOW_WEIGHTS) of each MOORE_OFFSETS cell.
_BIT = dict(zip(MOORE_OFFSETS, WINDOW_WEIGHTS))


def count_points(p: Pattern) -> int:
    """1-cells whose eight Moore neighbors are all 0."""
    return int((p.codes == _BIT[0, 0]).sum())


def count_dominoes(p: Pattern) -> int:
    """Adjacent 1-pairs whose surrounding 10-cell hull is all 0.

    The hull is the union of the two cells' windows: a pair anchored at
    (i, j) is a domino iff each cell's code holds just itself and the other.
    """
    b = _BIT
    codes = p.codes
    right = ((codes == (b[0, 0] | b[0, 1]))
             & (np.roll(codes, -1, axis=1) == (b[0, 0] | b[0, -1])))
    down = ((codes == (b[0, 0] | b[1, 0]))
            & (np.roll(codes, -1, axis=0) == (b[0, 0] | b[-1, 0])))
    return int(right.sum() + down.sum())


def detect_singularities(p: Pattern) -> list[tuple[int, int]]:
    """Top-left corners of maximal 2x2 zero blocks, row-major.

    A block counts only if it cannot be extended to an all-zero 2x3 or 3x2
    block, so uniform zero regions report nothing: each of the four strips
    flanking it holds a 1.
    """
    b = _BIT
    codes = p.codes
    # the block and two strips lie in the corner's window, two in its diagonal
    diag = np.roll(codes, (-1, -1), axis=(0, 1))  # the code at (i+1, j+1)
    found = (((codes & (b[0, 0] | b[0, 1] | b[1, 0] | b[1, 1])) == 0)
             & ((codes & (b[-1, 0] | b[-1, 1])) > 0)  # strip above
             & ((codes & (b[0, -1] | b[1, -1])) > 0)  # strip left
             & ((diag & (b[1, -1] | b[1, 0])) > 0)  # strip below
             & ((diag & (b[-1, 1] | b[0, 1])) > 0))  # strip right
    return [(i, j) for i, j in np.argwhere(found).tolist()]


def structure_report(p: Pattern) -> StructureReport:
    ones = p.ones
    return StructureReport(
        points=count_points(p),
        dominoes=count_dominoes(p),
        singularities=len(detect_singularities(p)),
        ones=ones,
        zero_cells=p.n * p.n - ones,
    )


def _require_odd(n: int) -> int:
    check_int(n)
    if n < 5 or n % 2 == 0:
        raise ValueError(f"size must be odd and >= 5, got {n}")
    return (n - 5) // 2


def n_domino_formula(n: int) -> int:
    _require_odd(n)
    return n - 1


def n_point_formula(n: int) -> int:
    m = _require_odd(n)
    return m + m * (m + 1)


def tps_formula_odd(n: int) -> int:
    """Closed-form optimal TPS for odd sizes (default payoff parameters)."""
    m = _require_odd(n)
    return 265 + 128 * m + 43 * m * (m + 2)


def wealth_formula_odd(n: int) -> float:
    return tps_formula_odd(n) / (9 * n * n)


def optimal_tps(n: int) -> float | None:
    """Known optimal TPS at size n (default payoff parameters), or None.

    Even n: the point lattice, 43n²/4. Odd n >= 5: tps_formula_odd. n = 3
    has no closed form and gives None.
    """
    check_size(n)
    if n % 2 == 0:
        return 43 * n * n / 4
    return float(tps_formula_odd(n)) if n >= 5 else None


def construct_optimal_odd(n: int) -> Pattern:
    """Build the optimal odd-size pattern by recursive border growth.

    Starting from the 5x5 optimum, each step to size q+2 appends one row of
    dominoes-and-points (110 followed by 10-repeats), one matching column,
    two all-zero separators and a corner square carrying a single 1.
    """
    _require_odd(n)
    arr = np.zeros((n, n), dtype=np.uint8)
    arr[:5, :5] = [[int(c) for c in row] for row in _BASE5]
    for q in range(5, n, 2):  # grow the top-left q x q block in place
        m = (q - 3) // 2
        arr[q + 1, :q] = [1, 1, 0] + [1, 0] * m
        arr[:q, q] = [0, 1, 1] + [0, 1] * m
        arr[q + 1, q] = 1
    return Pattern.from_array(arr)


def point_filled(n: int) -> Pattern:
    """A lattice of isolated points; odd sizes keep the border rows clear."""
    check_size(n)
    arr = np.zeros((n, n), dtype=np.uint8)
    limit = n if n % 2 == 0 else n - 2
    arr[0:limit:2, 0:limit:2] = 1
    return Pattern.from_array(arr)


@dataclass(frozen=True)
class OracleResult:
    max_tps: float
    n_optima: int  # raw argmax count over all 2^(n^2) patterns
    representatives: tuple[Pattern, ...]


def _orbit(arr: np.ndarray) -> np.ndarray:
    """(8 n^2, n^2) flat images of arr: all shifts x rotations/reflections."""
    n = arr.shape[0]
    # every n x n window of an image tiled 2 x 2 is one of its cyclic shifts
    tiled = np.tile(np.stack(symmetry_images(arr)), (1, 2, 2))
    shifts = sliding_window_view(tiled, (n, n), axis=(1, 2))[:, :n, :n]
    return shifts.reshape(-1, n * n)


def brute_force_oracle(n: int,
                       params: PayoffParams = DEFAULT_PARAMS) -> OracleResult:
    """Exhaustively score all 2^(n^2) patterns, 3 <= n <= ORACLE_MAX_N.

    Codes are bitboards (grid.pack), scored in int32 chunks by
    payoff.tps_of_boards; each orbit of optima is canonicalized once.
    """
    check_int(n)
    if n < 3 or n > ORACLE_MAX_N:
        raise ValueError(
            f"oracle supports 3 <= n <= {ORACLE_MAX_N}, got {n}")
    nn = n * n
    best = -np.inf
    best_codes: list[int] = []
    chunk = 1 << 15  # 128 KB int32 temporaries; n <= 5 keeps shifts < 2^30
    for lo in range(0, 1 << nn, chunk):
        codes = np.arange(lo, min(lo + chunk, 1 << nn), dtype=np.int32)
        tps_all = tps_of_boards(codes, n, params)
        m = tps_all.max()
        if m > best:
            best = m
            best_codes = []
        if m == best:
            best_codes.extend(codes[tps_all == best].tolist())
    reps, seen = [], set()
    for code in best_codes:
        if code not in seen:
            images = _orbit(Pattern.from_board(n, code).to_array())
            seen.update(pack_rows(images))
            reps.append(Pattern(n, min(map(bytes, images))))
    return OracleResult(float(best), len(best_codes), tuple(reps))


def derive_seed(seed: int, index: int) -> int:
    """Counter-mixed per-run seed (splitmix64 of seed + golden-ratio steps)."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


@dataclass(frozen=True)
class ExperimentSummary:
    n_runs: int
    t_limit: int
    w_max_max: float
    w_max_avrg: float
    t_avrg: float
    t_min: int
    t_max: int
    n_opt_found: int | None
    n_stable: int
    wealth_histogram: tuple[tuple[float, int], ...]
    runs: tuple[tuple[float, int, bool], ...] = field(repr=False)


def _one_run(cfg: CaConfig | GaConfig, n: int, start: Pattern | None,
             params: PayoffParams, seed: int) -> tuple[float, int, bool]:
    """Worker: returns (best TPS, its time, stable flag)."""
    if isinstance(cfg, GaConfig):
        res = run_ga(dataclasses.replace(cfg, seed=seed), n, params)
        return res.best_fitness, res.iterations, False
    res = run_ca(dataclasses.replace(cfg, seed=seed), n=n, start=start,
                 params=params)
    return res.trace[res.t_max].tps, res.t_max, res.stable


def run_experiment(cfg: CaConfig | GaConfig, n: int, n_runs: int,
                   params: PayoffParams = DEFAULT_PARAMS,
                   start: Pattern | None = None,
                   jobs: int = 1) -> ExperimentSummary:
    """n_runs independent seeded runs of the GA or the CA, aggregated.

    The engine follows from cfg: a GaConfig runs the GA, a CaConfig the CA
    (from start, if given; start is refused for the GA). Run i is cfg with
    seed derive_seed(cfg.seed, i). Per-run best wealth (best TPS / (K n^2))
    and its time feed the summary statistics: for the CA the first
    generation that attains it, for the GA the number of iterations used.
    The histogram buckets wealth rounded to 4 decimals. n_opt_found counts
    the runs whose best TPS reaches the goal: cfg's target, else
    optimal_tps(n) for DEFAULT_PARAMS, else None.
    """
    if not isinstance(cfg, (CaConfig, GaConfig)):
        raise ValueError(f"experiment config must be a CaConfig or a "
                         f"GaConfig, got {type(cfg).__name__}")
    if n_runs <= 0:
        raise ValueError("n_runs must be positive")
    if start is not None and isinstance(cfg, GaConfig):
        raise ValueError("the GA takes no start pattern")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    run = functools.partial(_one_run, cfg, n, start, params)
    seeds = [derive_seed(cfg.seed, i) for i in range(n_runs)]
    # a pool launches all its workers at once; more than the CPUs only queue
    workers = min(jobs, n_runs, os.cpu_count() or 1)
    if workers > 1:
        # imported here, not at the top: the pool's modules (multiprocessing
        # among them) would add over 10 ms to every import of wealthca
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                run, seeds, chunksize=max(1, n_runs // (4 * workers))))
    else:
        results = list(map(run, seeds))

    bests, t_list, stables = zip(*results)
    w_list = [best / (params.k * n * n) for best in bests]
    hist = Counter(round(w, 4) for w in w_list)
    if isinstance(cfg, GaConfig):
        t_limit, goal = cfg.max_iterations, cfg.target_fitness
    else:
        t_limit, goal = cfg.t_limit, cfg.target_tps
    if goal is None and params == DEFAULT_PARAMS:
        goal = optimal_tps(n)
    return ExperimentSummary(
        n_runs=n_runs,
        t_limit=t_limit,
        w_max_max=max(w_list),
        w_max_avrg=sum(w_list) / n_runs,
        t_avrg=sum(t_list) / n_runs,
        t_min=min(t_list),
        t_max=max(t_list),
        n_opt_found=None if goal is None else sum(b >= goal for b in bests),
        n_stable=sum(stables),
        wealth_histogram=tuple(sorted(hist.items())),
        runs=tuple(zip(w_list, t_list, stables)),
    )
