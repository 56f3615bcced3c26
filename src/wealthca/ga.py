"""Genetic algorithm over binary patterns with TPS fitness.

One flat population; each slot tries to improve itself by uniform crossover
with a random mate plus per-bit mutation. An offspring replaces its slot only
if strictly fitter and not already present cell-for-cell in the population.

For boards of <= 64 cells (n <= 8) a sweep screens all children as uint64
words in one numpy pass and scores one by one only those that can win.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .grid import Pattern, check_size, pack_rows, pack_words
from .payoff import (DEFAULT_PARAMS, PayoffParams, tps_of_boards,
                     tps_of_bits)


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 40
    p1: float = 0.2   # per-bit take-from-mate probability
    p2: float = 0.05  # per-bit mutation probability
    max_iterations: int = 10_000
    target_fitness: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population size must be >= 2")
        if not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.p2 <= 1.0):
            raise ValueError("p1 and p2 must be in [0, 1]")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if (self.target_fitness is not None
                and math.isnan(self.target_fitness)):
            raise ValueError("target_fitness must not be NaN")


@dataclass(frozen=True)
class Solution:
    pattern: Pattern
    fitness: float


class Population:
    """GA working set: M bitboards with their fitnesses and a duplicate index.

    A board is a Python int with bit k = flat cell k (see grid.pack).
    """

    def __init__(self, n: int, boards: list[int], params: PayoffParams):
        self.n = n
        self.params = params
        self.boards = list(boards)
        self.fitness = [tps_of_bits(b, n, params) for b in self.boards]
        self._counts = Counter(self.boards)

    def __len__(self) -> int:
        return len(self.boards)

    def contains_bits(self, board: int) -> bool:
        return board in self._counts

    def replace(self, i: int, board: int, fit: float) -> None:
        old = self.boards[i]
        self._counts[old] -= 1
        if self._counts[old] <= 0:
            del self._counts[old]
        self.boards[i] = board
        self.fitness[i] = fit
        self._counts[board] += 1

    @property
    def best_fitness(self) -> float:
        return max(self.fitness)

    def solutions(self) -> list[Solution]:
        return [Solution(Pattern.from_board(self.n, b), f)
                for b, f in zip(self.boards, self.fitness)]


def init_population(cfg: GaConfig, n: int, rng: np.random.Generator,
                    params: PayoffParams = DEFAULT_PARAMS) -> Population:
    """M patterns of i.i.d. fair-coin bits, fitness computed for each."""
    bits = rng.integers(0, 2, size=(cfg.population_size, n * n),
                        dtype=np.uint8)
    return Population(n, pack_rows(bits), params)


def draw_masks(cfg: GaConfig, m: int, nn: int,
               rng: np.random.Generator) -> tuple:
    """m crossover masks (each bit set with p1) and then m mutation masks
    (each bit set with p2), as bitboards of nn cells: uint64 arrays for
    nn <= 64, else lists of Python ints."""
    draws = rng.random((2, m, nn))  # the same stream as two (m, nn) draws
    pack = pack_words if nn <= 64 else pack_rows
    return pack(draws[0] < cfg.p1), pack(draws[1] < cfg.p2)


def make_offspring(parent, mate, cross, flip):
    """Uniform crossover (take the cross bits from the mate), then mutation
    (flip the flip bits), on Python-int or uint64 bitboards."""
    return ((parent & ~cross) | (mate & cross)) ^ flip


def ga_step(pop: Population, cfg: GaConfig, rng: np.random.Generator) -> None:
    """One sweep over all slots, replacing in place.

    Later slots see earlier replacements. The mate index may equal the slot
    itself, which degenerates to mutation-only offspring.

    Boards of <= 64 cells are screened: all m children of the sweep-start
    boards are scored in one tps_of_boards pass. Slot i keeps its board and
    fitness until its turn, so a child not fitter there is skipped, unless
    its mate was replaced earlier in the sweep. The rest are rebuilt from
    the current boards and scored by tps_of_bits. The screen is
    tps_of_bits's expression, so runs are bit-identical to scoring every
    child, as larger boards are.
    """
    m, n, params = len(pop), pop.n, pop.params
    boards, fitness = pop.boards, pop.fitness  # pop.replace updates both
    mates = rng.integers(0, m, size=m)
    cross, flip = draw_masks(cfg, m, n * n, rng)
    if n * n <= 64:
        words = np.array(boards, dtype=np.uint64)
        children = make_offspring(words, words[mates], cross, flip)
        fitter = (tps_of_boards(children, n, params) > fitness).tolist()
        cross, flip = cross.tolist(), flip.tolist()
    else:
        fitter = [True] * m
    replaced = set()
    for i, j in enumerate(mates.tolist()):
        if not (fitter[i] or j in replaced):
            continue
        child = make_offspring(boards[i], boards[j], cross[i], flip[i])
        fit = tps_of_bits(child, n, params)
        if fit > fitness[i] and not pop.contains_bits(child):
            pop.replace(i, child, fit)
            replaced.add(i)


@dataclass(frozen=True)
class GaResult:
    solutions: tuple[Solution, ...] = field(repr=False)
    best_fitness: float
    iterations: int

    @property
    def best(self) -> Solution:
        return self.solutions[0]


def run_ga(cfg: GaConfig, n: int,
           params: PayoffParams = DEFAULT_PARAMS) -> GaResult:
    """Iterate until max_iterations or the target fitness is reached.

    Returns the population sorted by descending fitness.
    """
    check_size(n)
    n = operator.index(n)  # a numpy int would leak into the bit masks
    rng = np.random.default_rng(cfg.seed)
    pop = init_population(cfg, n, rng, params)
    iterations = 0
    while iterations < cfg.max_iterations:
        if (cfg.target_fitness is not None
                and pop.best_fitness >= cfg.target_fitness):
            break
        ga_step(pop, cfg, rng)
        iterations += 1
    solutions = sorted(pop.solutions(), key=lambda s: s.fitness, reverse=True)
    return GaResult(tuple(solutions), solutions[0].fitness, iterations)
