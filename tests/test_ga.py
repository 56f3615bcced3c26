import numpy as np
import pytest

from wealthca.analysis import brute_force_oracle, derive_seed
from wealthca.ga import (GaConfig, Population, draw_masks, ga_step,
                         init_population, make_offspring, run_ga)
from wealthca.grid import Pattern, pack, pack_rows
from wealthca.payoff import DEFAULT_PARAMS, PayoffParams, tps, tps_of_bits


class TestConfig:
    def test_population_must_hold_two(self):
        with pytest.raises(ValueError):
            GaConfig(population_size=1)

    def test_probabilities_in_unit_interval(self):
        with pytest.raises(ValueError):
            GaConfig(p1=1.5)
        with pytest.raises(ValueError):
            GaConfig(p2=-0.1)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            GaConfig(max_iterations=-1)

    def test_nan_target_rejected(self):
        with pytest.raises(ValueError):
            GaConfig(target_fitness=float("nan"))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            GaConfig(seed=-1)


class TestOffspring:
    # statistics of the operator ga_step runs, on masks drawn as it draws them
    nn = 16
    parent = 0
    mate = pack(Pattern(4, (1,) * 8 + (0,) * 8))

    def children(self, cfg, mate, draws, seed):
        rng = np.random.default_rng(seed)
        cross, flip = draw_masks(cfg, draws, self.nn, rng)
        return [make_offspring(self.parent, mate, c, f)
                for c, f in zip(cross, flip)]

    def test_no_crossover_no_mutation_copies_parent(self):
        cfg = GaConfig(p1=0.0, p2=0.0)
        assert self.children(cfg, self.mate, 10, 0) == [self.parent] * 10

    def test_full_crossover_copies_mate(self):
        cfg = GaConfig(p1=1.0, p2=0.0)
        assert self.children(cfg, self.mate, 10, 0) == [self.mate] * 10

    def test_pure_mutation_flip_rate(self):
        cfg = GaConfig(p1=0.0, p2=0.05)
        flips = sum(c.bit_count()
                    for c in self.children(cfg, self.parent, 2000, 7))
        rate = flips / (2000 * self.nn)
        assert rate == pytest.approx(0.05, abs=0.01)

    def test_per_bit_change_probability(self):
        # with the mate differing from the parent in a fraction d of bits,
        # P(child bit != parent bit) = (1-p1) p2 + p1 (d (1-p2) + (1-d) p2)
        cfg = GaConfig(p1=0.2, p2=0.05)
        d = 0.5
        expected = (1 - cfg.p1) * cfg.p2 + cfg.p1 * (
            d * (1 - cfg.p2) + (1 - d) * cfg.p2)
        draws = 10_000
        changed = sum((c ^ self.parent).bit_count()
                      for c in self.children(cfg, self.mate, draws, 11))
        assert changed / (draws * self.nn) == pytest.approx(expected,
                                                            abs=0.005)


class TestPopulation:
    def test_init_size_and_fitness(self):
        cfg = GaConfig(population_size=10, seed=3)
        pop = init_population(cfg, 4, np.random.default_rng(cfg.seed))
        assert len(pop) == 10
        assert pop.fitness == [tps(Pattern.from_board(4, board))
                               for board in pop.boards]
        assert all(type(fit) is float for fit in pop.fitness)

    def test_duplicate_index_tracks_replacement(self):
        cfg = GaConfig(population_size=4, seed=0)
        pop = init_population(cfg, 3, np.random.default_rng(cfg.seed))
        board = pack(Pattern(3, (1,) * 9))
        assert not pop.contains_bits(board)
        pop.replace(0, board, 0.0)
        assert pop.contains_bits(board)
        assert pop.fitness[0] == 0.0

    def test_step_never_lowers_any_slot(self):
        cfg = GaConfig(population_size=12, seed=5)
        rng = np.random.default_rng(cfg.seed)
        pop = init_population(cfg, 5, rng=rng)
        for _ in range(30):
            before = list(pop.fitness)
            ga_step(pop, cfg, rng)
            assert all(a >= b for a, b in zip(pop.fitness, before))

    def test_step_rejects_cellwise_duplicates(self):
        cfg = GaConfig(population_size=6, seed=2)
        rng = np.random.default_rng(cfg.seed)
        pop = init_population(cfg, 4, rng=rng)
        for _ in range(100):
            ga_step(pop, cfg, rng)
            assert len(set(pop.boards)) == len(pop)

    def test_uniformly_optimal_population_is_fixed(self):
        # fill all slots with distinct shifts of a global optimum; no
        # offspring can be strictly fitter, so nothing may change
        oracle = brute_force_oracle(3)
        base = np.array(oracle.representatives[0].cells,
                        dtype=np.uint8).reshape(3, 3)
        boards = pack_rows(np.stack([
            np.roll(base, k, axis=1).ravel() for k in range(3)]))
        pop = Population(3, boards, DEFAULT_PARAMS)
        assert pop.fitness == [oracle.max_tps] * 3
        cfg = GaConfig(population_size=3)
        rng = np.random.default_rng(9)
        for _ in range(50):
            ga_step(pop, cfg, rng)
        assert pop.boards == boards


class TestRun:
    def test_deterministic_for_a_seed(self):
        cfg = GaConfig(population_size=8, max_iterations=40, seed=13)
        a = run_ga(cfg, 4)
        b = run_ga(cfg, 4)
        assert a.best_fitness == b.best_fitness
        assert [s.pattern for s in a.solutions] == [
            s.pattern for s in b.solutions]

    def test_reaches_small_grid_optimum(self):
        oracle = brute_force_oracle(3)
        cfg = GaConfig(population_size=20, max_iterations=2000,
                       target_fitness=oracle.max_tps, seed=0)
        res = run_ga(cfg, 3)
        assert res.best_fitness == oracle.max_tps
        assert res.iterations < cfg.max_iterations

    def test_never_beats_the_oracle(self):
        oracle = brute_force_oracle(4)
        cfg = GaConfig(population_size=20, max_iterations=300, seed=1)
        res = run_ga(cfg, 4)
        assert res.best_fitness <= oracle.max_tps

    def test_result_sorted_and_best_consistent(self):
        cfg = GaConfig(population_size=10, max_iterations=50, seed=4)
        res = run_ga(cfg, 4)
        fits = [s.fitness for s in res.solutions]
        assert fits == sorted(fits, reverse=True)
        assert res.best.fitness == res.best_fitness
        assert tps_of_bits(pack(res.best.pattern), 4) == res.best_fitness

    def test_golden_trajectory(self):
        # run lengths of the numpy-row GA that the bitboard GA replaced: the
        # same draws must give the same fitnesses and so the same runs
        iterations = [run_ga(GaConfig(target_fitness=387,
                                      seed=derive_seed(1, i)), 6).iterations
                      for i in range(10)]
        assert iterations == [197, 119, 202, 278, 130, 307, 180, 241, 118, 310]

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            run_ga(GaConfig(max_iterations=1), 2)


def reference_run(cfg, n, params, counts):
    """run_ga with every child built and scored one by one, with no screen:
    two mask draws of m rows, each packed row by row.

    counts["mate_replaced"] counts the slots that the screen alone would
    skip but whose mate was replaced earlier in the same sweep.
    """
    def masks(p, m):
        rows = np.packbits(rng.random((m, n * n)) < p, axis=1,
                           bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in rows]

    rng = np.random.default_rng(cfg.seed)
    pop = init_population(cfg, n, rng, params)
    m, iterations = len(pop), 0
    while iterations < cfg.max_iterations:
        if (cfg.target_fitness is not None
                and pop.best_fitness >= cfg.target_fitness):
            break
        mates = rng.integers(0, m, size=m).tolist()
        cross, flip = masks(cfg.p1, m), masks(cfg.p2, m)
        start = list(pop.boards)
        for i, j in enumerate(mates):
            child = make_offspring(pop.boards[i], pop.boards[j], cross[i],
                                   flip[i])
            fit = tps_of_bits(child, n, params)
            if pop.boards[j] != start[j] and tps_of_bits(make_offspring(
                    start[i], start[j], cross[i], flip[i]),
                    n, params) <= pop.fitness[i]:
                counts["mate_replaced"] += 1
            if fit > pop.fitness[i] and not pop.contains_bits(child):
                pop.replace(i, child, fit)
        iterations += 1
    solutions = sorted(pop.solutions(), key=lambda s: s.fitness, reverse=True)
    return solutions, iterations


class TestScreenedSweep:
    """ga_step screens boards of <= 64 cells in one array pass; the runs must
    equal the per-child reference on both sides of that limit."""

    CONFIGS = [GaConfig(max_iterations=40, seed=3),
               GaConfig(population_size=2, max_iterations=40, seed=4)] + [
        GaConfig(population_size=12, p1=p1, p2=p2, max_iterations=15,
                 seed=5) for p1 in (0.0, 1.0) for p2 in (0.0, 1.0)]

    @pytest.mark.parametrize("params", [DEFAULT_PARAMS,
                                        PayoffParams(1.0, 3.0, 2.0, 0.0)],
                             ids=["default", "c2>0"])
    @pytest.mark.parametrize("n", range(3, 10))
    def test_runs_equal_the_per_child_reference(self, n, params):
        counts = {"mate_replaced": 0}
        for cfg in self.CONFIGS:
            res = run_ga(cfg, n, params)
            solutions, iterations = reference_run(cfg, n, params, counts)
            assert res.iterations == iterations
            assert [(s.pattern, s.fitness) for s in res.solutions] == [
                (s.pattern, s.fitness) for s in solutions]
            assert res.best_fitness == solutions[0].fitness
        assert counts["mate_replaced"] > 0
