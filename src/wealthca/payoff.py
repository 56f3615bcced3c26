"""Prisoner's-dilemma utility on the torus: payoffs, TPS, wealth."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Coord, Pattern, pack


@dataclass(frozen=True)
class PayoffParams:
    """Two-player payoff table (T, R, P, S) plus the neighborhood mode.

    With self_play a cell also plays against its own state, so K = 9
    opponents out of the 3x3 Moore window; without it K = 8.

    pair_sum = (c0, c1, c2) gives TPS = c0 n^2 + c1 ones + c2 E on any
    n x n torus, where ones counts defectors and E the 8-neighbor pairs of
    defectors. Each of the 4n^2 neighbor pairs pays 2R, S + T or 2P for 0,
    1 or 2 defectors, and there are 8 ones - 2E mixed pairs; with self_play
    each cell adds R or P against itself. The defaults give 9, 7, -4.
    """

    t: float = 3.0
    r: float = 1.0
    p: float = 0.0
    s: float = 0.0
    self_play: bool = True

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t, self.r, self.p, self.s))):
            raise ValueError(f"payoffs must be finite, got {self}")
        # pair_sum is a plain attribute, not a field (so not in eq or hash):
        # a cached property would slow every later attribute read here.
        # All three are floats, even from int payoffs: a negative int c2
        # cannot multiply payoff.tps_of_boards's uint64 pair counts
        own = 1.0 if self.self_play else 0.0
        object.__setattr__(self, "pair_sum", (
            8 * self.r + own * self.r,
            8 * (self.s + self.t) - 16 * self.r + own * (self.p - self.r),
            2.0 * (self.r + self.p - self.s - self.t)))

    @property
    def k(self) -> int:
        return 9 if self.self_play else 8


DEFAULT_PARAMS = PayoffParams()


def pair_payoff(a: int, b: int, params: PayoffParams = DEFAULT_PARAMS) -> float:
    """Payoff received by a player in state a against an opponent in state b.

    State 0 is cooperate, 1 is defect.
    """
    if a == 0:
        return params.r if b == 0 else params.s
    return params.t if b == 0 else params.p


def total_payoff_grid(p: Pattern,
                      params: PayoffParams = DEFAULT_PARAMS) -> np.ndarray:
    """(n, n) array of each cell's summed payoff against its K opponents.

    Only the per-cell map needs this; totals use the pair-sum form.
    """
    codes = p.codes
    center = codes >> 8
    # defector opponents: the outer ring, plus the cell itself under self_play
    n_def = np.bitwise_count(codes & 255) + (center if params.self_play else 0)
    n_coop = params.k - n_def
    return np.where(center == 1, params.t * n_coop + params.p * n_def,
                    params.r * n_coop + params.s * n_def)


def cell_total_payoff(p: Pattern, c: Coord,
                      params: PayoffParams = DEFAULT_PARAMS) -> float:
    n = p.n
    a = p.at(c.i, c.j)
    total = 0.0
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if (di, dj) == (0, 0) and not params.self_play:
                continue
            total += pair_payoff(a, p.at(c.i + di, c.j + dj), params)
    return total


def cell_utility(p: Pattern, c: Coord,
                 params: PayoffParams = DEFAULT_PARAMS) -> float:
    """Total payoff normalized by the number of opponents."""
    return cell_total_payoff(p, c, params) / params.k


def tps(p: Pattern, params: PayoffParams = DEFAULT_PARAMS) -> float:
    """Total payoff sum over all cells; integer-valued for integer payoffs."""
    return tps_of_bits(pack(p), p.n, params)


def wealth(p: Pattern, params: PayoffParams = DEFAULT_PARAMS) -> float:
    """Average shared income per agent: TPS / (K * n^2). All-cooperate = 1."""
    return tps(p, params) / (params.k * p.n * p.n)


def expected_wealth(pi_c: float,
                    params: PayoffParams = DEFAULT_PARAMS) -> float:
    """Mean-field wealth over pairs (K = 8); params.self_play is ignored.

    Only without self_play is it the exact E[W] of a Bernoulli pattern: under
    the default self_play that mean is 13/12, not 9/8, at pi_c = 0.75.
    """
    if not 0.0 <= pi_c <= 1.0:
        raise ValueError(f"cooperation rate must be in [0, 1], got {pi_c}")
    pi_d = 1.0 - pi_c
    payoff_d = params.p * pi_d + params.t * pi_c
    payoff_c = params.r * pi_c + params.s * pi_d
    return pi_d * payoff_d + pi_c * payoff_c


@dataclass(frozen=True)
class Characteristic:
    """Summary tuple (W, TPS; n, n^2, b, b/n^2) of a pattern."""

    wealth: float
    tps: float
    n: int
    area: int
    ones: int
    density: float


def characteristic(p: Pattern,
                   params: PayoffParams = DEFAULT_PARAMS) -> Characteristic:
    total = tps(p, params)
    area = p.n * p.n
    ones = p.ones
    return Characteristic(
        wealth=total / (params.k * area),
        tps=total,
        n=p.n,
        area=area,
        ones=ones,
        density=ones / area,
    )


@lru_cache(maxsize=None)
def _torus_masks(n: int) -> tuple[int, ...]:
    """Masks of an n x n bitboard: all but the last column, the last column
    and the first row; then the shifts that wrap a column and a row to the
    far side."""
    last = sum(1 << (i * n + n - 1) for i in range(n))
    full = (1 << (n * n)) - 1
    return full ^ last, last, (1 << n) - 1, n - 1, n * n - n


def pair_count(x, n: int, popcount=int.bit_count):
    """Number E of 8-neighbor pairs of set bits on the n x n torus.

    x is a bitboard (bit k = flat cell k, row-major) with a matching
    popcount, or an int32 (n <= 5), int64 (n <= 7) or uint64 (n <= 8) array
    of them with np.bitwise_count; an array gives E in x's dtype.
    Each pair is counted once, as the top (k, right), the left (k, down) or
    a diagonal, (k, down-right) or (right, down), of the 2 x 2 block whose
    top-left cell is k on the torus; this needs n >= 3.
    """
    not_last, last, row0, col, row = _torus_masks(n)
    # bit k of each shift holds the state of cell k's neighbor that way
    right = ((x >> 1) & not_last) | ((x << col) & last)
    down = (x >> n) | ((x & row0) << row)
    down_right = ((down >> 1) & not_last) | ((down << col) & last)
    # 0 * x is 0 in x's own type: it widens np.bitwise_count's uint8
    # counts, whose sum would wrap at 256 (the all-ones board at n = 8)
    return (0 * x + popcount(x & right) + popcount(x & down)
            + popcount(x & down_right) + popcount(right & down))


def tps_of_bits(board: int, n: int,
                params: PayoffParams = DEFAULT_PARAMS) -> float:
    """TPS of an n x n bitboard (see grid.pack) in pair-sum form (hot path).

    TPS = c0 n^2 + c1 ones + c2 E with the params.pair_sum coefficients.
    """
    if n < 3 or board >> (n * n):
        raise ValueError(f"need n >= 3 and a board of n^2 bits, got n = {n}")
    c0, c1, c2 = params.pair_sum
    return c0 * (n * n) + c1 * board.bit_count() + c2 * pair_count(board, n)


def tps_of_boards(boards: np.ndarray, n: int,
                  params: PayoffParams = DEFAULT_PARAMS) -> np.ndarray:
    """Float64 TPS of each bitboard in an array (a dtype pair_count takes).

    The expression is tps_of_bits's, so each value equals its TPS exactly;
    unlike tps_of_bits it does not check n or the boards.
    """
    c0, c1, c2 = params.pair_sum
    return (c0 * (n * n) + c1 * np.bitwise_count(boards)
            + c2 * pair_count(boards, n, np.bitwise_count))
