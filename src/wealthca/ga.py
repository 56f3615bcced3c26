"""Genetic algorithm over binary patterns with TPS fitness.

One flat population; each slot tries to improve itself by uniform crossover
with a random mate plus per-bit mutation. An offspring replaces its slot only
if strictly fitter and not already present cell-for-cell in the population.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .grid import Pattern, check_size, pack_rows
from .payoff import DEFAULT_PARAMS, PayoffParams, tps_of_bits


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
               rng: np.random.Generator) -> tuple[list[int], list[int]]:
    """m crossover masks (each bit set with p1) and then m mutation masks
    (each bit set with p2), as bitboards of nn cells."""
    cross = pack_rows(rng.random((m, nn)) < cfg.p1)
    flip = pack_rows(rng.random((m, nn)) < cfg.p2)
    return cross, flip


def make_offspring(parent: int, mate: int, cross: int, flip: int) -> int:
    """Uniform crossover (take the cross bits from the mate), then mutation
    (flip the flip bits)."""
    return ((parent & ~cross) | (mate & cross)) ^ flip


def ga_step(pop: Population, cfg: GaConfig, rng: np.random.Generator) -> None:
    """One sweep over all slots, replacing in place.

    Later slots see earlier replacements. The mate index may equal the slot
    itself, which degenerates to mutation-only offspring.
    """
    m = len(pop)
    mates = rng.integers(0, m, size=m).tolist()
    cross, flip = draw_masks(cfg, m, pop.n * pop.n, rng)
    boards = pop.boards
    for i in range(m):
        child = make_offspring(boards[i], boards[mates[i]], cross[i], flip[i])
        fit = tps_of_bits(child, pop.n, pop.params)
        if fit > pop.fitness[i] and not pop.contains_bits(child):
            pop.replace(i, child, fit)


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
