import concurrent.futures
import dataclasses
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wealthca import analysis
from wealthca.analysis import (_BASE5, ORACLE_MAX_N, _orbit,
                               brute_force_oracle,
                               construct_optimal_odd, count_dominoes,
                               count_points, derive_seed, detect_singularities,
                               n_domino_formula, n_point_formula,
                               optimal_tps, point_filled, run_experiment,
                               structure_report, tps_formula_odd,
                               wealth_formula_odd)
from wealthca.ca import CaConfig, init_ca, run_ca
from wealthca.ga import GaConfig, run_ga
from wealthca.grid import (MOORE_OFFSETS, Coord, Pattern, PatternError,
                          pack_rows, parse, symmetry_images, transform,
                          window_indices)
from wealthca.payoff import (DEFAULT_PARAMS, PayoffParams, cell_total_payoff,
                             pair_count, tps, wealth)
from wealthca.templates import (Template, TemplateSet, builtin_set,
                                extract_templates)

# Per-cell reference definitions of the whole-grid stencils, read with
# Pattern.at; the property tests below hold the package to them.


def ref_count_points(p):
    return sum(p.at(i, j) == 1 and all(
        p.at(i + di, j + dj) == 0 for di in (-1, 0, 1) for dj in (-1, 0, 1)
        if (di, dj) != (0, 0)) for i in range(p.n) for j in range(p.n))


def ref_count_dominoes(p):
    def clear(i, j, rows, cols, pair):
        return all(p.at(i + a, j + b) == 0 for a in rows for b in cols
                   if (a, b) not in pair)

    count = 0
    for i in range(p.n):
        for j in range(p.n):
            if p.at(i, j) and p.at(i, j + 1) and clear(
                    i, j, (-1, 0, 1), (-1, 0, 1, 2), ((0, 0), (0, 1))):
                count += 1
            if p.at(i, j) and p.at(i + 1, j) and clear(
                    i, j, (-1, 0, 1, 2), (-1, 0, 1), ((0, 0), (1, 0))):
                count += 1
    return count


def ref_detect_singularities(p):
    found = []
    for i in range(p.n):
        for j in range(p.n):
            if any(p.at(i + a, j + b) for a in (0, 1) for b in (0, 1)):
                continue
            extensions = (((-1, 0), (-1, 1)), ((2, 0), (2, 1)),
                          ((0, -1), (1, -1)), ((0, 2), (1, 2)))
            if all(any(p.at(i + a, j + b) for a, b in ext)
                   for ext in extensions):
                found.append((i, j))
    return found


def ref_extract_templates(p, complete):
    builtin = {t.values: t for t in builtin_set(52)}
    seen, count = {}, 0

    def add(window):
        nonlocal count
        if window not in seen:
            t = builtin.get(window)
            seen[window] = (Template.from_rows(window, t.label) if t
                            else Template.from_rows(window, f"X{count}"))
            count += t is None

    for i in range(p.n):
        for j in range(p.n):
            add(tuple(tuple(p.at(i + di, j + dj) for dj in (-1, 0, 1))
                      for di in (-1, 0, 1)))
    if complete:
        for window in list(seen):
            for img in symmetry_images(np.array(window)):
                add(tuple(tuple(row) for row in img.tolist()))
    return TemplateSet(tuple(seen.values()))


def ref_canonical_bytes(arr):
    n = arr.shape[0]
    best = None
    for img in symmetry_images(arr):
        for di in range(n):
            rolled = np.roll(img, di, axis=0)
            for dj in range(n):
                cand = np.roll(rolled, dj, axis=1).tobytes()
                if best is None or cand < best:
                    best = cand
    return best


def ref_construct_optimal_odd(n):
    """Border growth that copies the grid into a fresh (q+2)^2 array."""
    arr = np.array([[int(c) for c in row] for row in _BASE5], dtype=np.uint8)
    while arr.shape[0] < n:
        q = arr.shape[0]
        m = (q - 3) // 2
        grown = np.zeros((q + 2, q + 2), dtype=np.uint8)
        grown[:q, :q] = arr
        grown[q + 1, :q] = [1, 1, 0] + [1, 0] * m
        grown[:q, q] = [0, 1, 1] + [0, 1] * m
        grown[q:, q:] = [[0, 0], [1, 0]]
        arr = grown
    return Pattern.from_array(arr)


# the right, down-left, down and down-right neighbors: each 8-neighbor
# pair is one cell and one of these four of it
FORWARD = [MOORE_OFFSETS.index(d) for d in ((0, 1), (1, -1), (1, 0), (1, 1))]


def ref_pair_count(rows, n):
    """E of each row of a (m, n^2) 0/1 array, from the cells and their four
    forward neighbors in window_indices, without payoff.pair_count."""
    rows = np.asarray(rows, dtype=np.uint8)
    forward = rows[:, window_indices(n)[:, FORWARD]]
    return (rows[:, :, None] & forward).sum(axis=(1, 2))


def ref_oracle(n, params):
    """All codes scored in one pass; every optimum canonicalized, in
    ascending code order, the first of each class kept."""
    nn = n * n
    c0, c1, c2 = params.pair_sum
    codes = np.arange(1 << nn, dtype=np.int64)
    rows = (codes[:, None] >> np.arange(nn)) & 1
    tps_all = c0 * nn + c1 * rows.sum(axis=1) + c2 * ref_pair_count(rows, n)
    best = tps_all.max()
    best_codes = codes[tps_all == best].tolist()
    reps = {}
    for code in best_codes:
        key = min(map(bytes, _orbit(Pattern.from_board(n, code).to_array())))
        reps.setdefault(key, Pattern(n, key))
    return float(best), len(best_codes), tuple(reps.values())


def assert_stencils_match_references(p):
    assert count_points(p) == ref_count_points(p)
    assert count_dominoes(p) == ref_count_dominoes(p)
    assert detect_singularities(p) == ref_detect_singularities(p)
    for complete in (False, True):
        assert (extract_templates(p, complete).templates
                == ref_extract_templates(p, complete).templates)


random_grids = st.builds(
    lambda n, density, seed: Pattern.from_array(
        np.random.default_rng(seed).random((n, n)) < density),
    st.integers(3, 14), st.floats(0, 1), st.integers(0, 2**32 - 1))


class TestStructureCounts:
    def test_points_need_clear_surroundings(self):
        p = parse("00000\n01000\n00000\n00011\n00000")
        assert count_points(p) == 1

    def test_dominoes_both_orientations(self):
        horizontal = parse("00000\n01100\n00000\n00000\n00000")
        vertical = parse("00000\n01000\n01000\n00000\n00000")
        assert count_dominoes(horizontal) == 1
        assert count_dominoes(vertical) == 1
        assert count_points(horizontal) == 0

    def test_crowded_pair_is_not_a_domino(self):
        p = parse("00000\n01100\n00010\n00000\n00000")
        assert count_dominoes(p) == 0

    def test_singularity_is_a_maximal_zero_block(self, optimal5):
        assert detect_singularities(optimal5) == [(2, 1)]
        assert detect_singularities(Pattern.zeros(5)) == []

    def test_report_totals(self, optimal5):
        rep = structure_report(optimal5)
        assert rep.points == 0
        assert rep.dominoes == 4
        assert rep.singularities == 1
        assert rep.ones == 8
        assert rep.zero_cells == 17


class TestStencilsMatchPerCellReferences:
    @given(random_grids)
    def test_random_grids(self, p):
        assert_stencils_match_references(p)

    def test_odd_optima(self):
        for n in range(5, 40, 2):
            p = transform(construct_optimal_odd(n), "shift", n // 2, n // 3)
            assert_stencils_match_references(p)


class TestOddFormulas:
    def test_reject_even_or_tiny_sizes(self):
        for bad in (3, 4, 6):
            with pytest.raises(ValueError):
                tps_formula_odd(bad)

    def test_known_sequence(self):
        assert [tps_formula_odd(n) for n in range(5, 17, 2)] == [
            265, 522, 865, 1294, 1809, 2410]
        assert [n_domino_formula(n) for n in range(5, 17, 2)] == [
            4, 6, 8, 10, 12, 14]
        assert [n_point_formula(n) for n in range(5, 17, 2)] == [
            0, 3, 8, 15, 24, 35]

    def test_wealth_formula(self):
        assert wealth_formula_odd(9) == pytest.approx(865 / 729)
        assert wealth_formula_odd(9) == pytest.approx(1.18656, abs=1e-5)


@pytest.fixture(scope="module")
def oracle5():
    """The 2^25 scan, run once for this module."""
    return brute_force_oracle(5)


class TestConstruction:
    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_construction_attains_the_formulas(self, n):
        p = construct_optimal_odd(n)
        rep = structure_report(p)
        assert tps(p) == tps_formula_odd(n)
        assert rep.dominoes == n_domino_formula(n)
        assert rep.points == n_point_formula(n)
        assert rep.singularities == 1
        assert rep.ones == 2 * rep.dominoes + rep.points

    def test_matches_the_copying_growth_loop(self):
        for n in range(5, 42, 2):
            assert (construct_optimal_odd(n).cells
                    == ref_construct_optimal_odd(n).cells)

    def test_five_matches_exhaustive_search(self, oracle5):
        assert oracle5.max_tps == 265.0
        assert oracle5.n_optima == 50
        assert tps(construct_optimal_odd(5)) == oracle5.max_tps

    def test_every_five_optimum_has_one_singularity(self, oracle5):
        # one class, the construction's; its orbit holds all 50 optima, and
        # shifts and symmetries keep the singularity count
        (rep,) = oracle5.representatives
        assert (min(map(bytes, _orbit(construct_optimal_odd(5).to_array())))
                == bytes(rep.cells))
        assert structure_report(rep).singularities == 1
        assert len(set(pack_rows(_orbit(rep.to_array())))) == oracle5.n_optima

    def test_construction_windows_stay_in_the_full_rule(self):
        from wealthca.templates import extract_templates
        full = builtin_set(52).values_set()
        for n in (7, 11):
            ts = extract_templates(construct_optimal_odd(n))
            assert ts.values_set() <= full


class TestPointFilled:
    def test_even_size_tps(self, lattice6):
        assert point_filled(6) == lattice6
        assert tps(point_filled(10)) == 43 * 100 / 4

    def test_odd_size_keeps_border_clear(self):
        p = point_filled(7)
        rep = structure_report(p)
        assert rep.points == rep.ones == 9
        assert all(p.at(i, 6) == 0 and p.at(6, i) == 0 for i in range(7))

    def test_too_small(self):
        with pytest.raises(PatternError):
            point_filled(2)


def block_weight(a, b, c, d, params):
    """Weight of the 2x2 blocks with cells a b / c d (numbers or arrays).

    w = c0 + c1 ones/4 + c2 ((h + v)/2 + diag) in the params.pair_sum
    coefficients: each cell lies in four blocks, each horizontal (h) or
    vertical (v) defector pair in two and each diagonal one in one.
    """
    c0, c1, c2 = params.pair_sum
    h, v, diag = a * b + c * d, a * c + b * d, a * d + b * c
    return c0 + c1 * (a + b + c + d) / 4 + c2 * ((h + v) / 2 + diag)


def block_weights(p, params):
    """(n, n) weights of the cell-anchored 2x2 blocks of p."""
    a = p.to_array().astype(int)
    b, c = np.roll(a, -1, axis=1), np.roll(a, -1, axis=0)
    return block_weight(a, b, c, np.roll(c, -1, axis=1), params)


CERTIFICATE_PARAMS = (DEFAULT_PARAMS, PayoffParams(5.0, 3.0, 1.0, 0.0),
                      PayoffParams(self_play=False))


class TestEvenCertificate:
    """TPS is the sum of the block weights; under the default payoffs no
    block weighs more than 43/4, the point lattice's, so 43n²/4 bounds
    every n x n pattern and optimal_tps(n) is certified for even n."""

    @given(st.integers(3, 11), st.floats(0, 1), st.integers(0, 2**32 - 1),
           st.sampled_from(CERTIFICATE_PARAMS))
    def test_tps_is_the_sum_of_block_weights(self, n, density, seed, params):
        p = Pattern.from_array(
            np.random.default_rng(seed).random((n, n)) < density)
        assert block_weights(p, params).sum() == tps(p, params)
        if params == DEFAULT_PARAMS:
            assert tps(p) <= 43 * n * n / 4

    def test_one_defector_blocks_alone_weigh_the_most(self):
        weights = {cells: block_weight(*cells, DEFAULT_PARAMS)
                   for cells in product((0, 1), repeat=4)}
        top = max(weights.values())
        assert top == 43 / 4
        assert ({cells for cells, w in weights.items() if w == top}
                == {cells for cells in weights if sum(cells) == 1})

    def test_even_optimum_is_the_block_bound_attained(self):
        for n in range(4, 17, 2):
            assert optimal_tps(n) == 43 * n * n / 4
            assert (block_weights(point_filled(n), DEFAULT_PARAMS)
                    == 43 / 4).all()


class TestGreedyCenters:
    """Flipping a cell changes TPS by an amount set by its window alone: a
    0-cell with k 1-neighbours gains g = c1 + c2*k by becoming 1. No single
    flip raises the TPS of an optimum, so wherever g != 0 every template
    extracted from one has center 1 exactly when g > 0. The built-in rules
    obey the same law under the default payoffs."""

    def test_extracted_and_builtin_centers_are_greedy(self):
        cases = [(params, t) for params in CERTIFICATE_PARAMS for n in (3, 4)
                 for p in brute_force_oracle(n, params).representatives
                 for t in extract_templates(p)]
        assert len(cases) == 321
        cases += [(DEFAULT_PARAMS, t) for n in range(5, 22, 2)
                  for t in extract_templates(construct_optimal_odd(n))]
        cases += [(DEFAULT_PARAMS, t) for size in (8, 36, 52)
                  for t in builtin_set(size)]
        wrong = []
        for params, t in cases:
            _, c1, c2 = params.pair_sum
            cells = [c for row in t.values for c in row]
            g = c1 + c2 * (sum(cells) - cells[4])
            if g != 0 and (cells[4] == 1) != (g > 0):
                wrong.append((params, t))
        assert wrong == []


class TestOptimalTps:
    def test_small_sizes(self):
        assert optimal_tps(4) == brute_force_oracle(4).max_tps
        assert optimal_tps(3) is None
        with pytest.raises(PatternError):
            optimal_tps(2)

    def test_even_sizes_are_the_point_lattice(self):
        for n in range(4, 13, 2):
            assert optimal_tps(n) == tps(point_filled(n))

    def test_odd_sizes_are_the_construction(self):
        for n in range(5, 16, 2):
            assert optimal_tps(n) == tps(construct_optimal_odd(n))


class TestOracle:
    def test_three_by_three(self):
        res = brute_force_oracle(3)
        assert res.max_tps == 91.0
        assert res.n_optima == 36
        assert len(res.representatives) == 2
        for p in res.representatives:
            assert tps(p) == 91.0

    def test_four_by_four_matches_even_formula(self):
        res = brute_force_oracle(4)
        assert res.max_tps == 43 * 16 / 4
        assert res.n_optima == 12
        point = point_filled(4)
        assert tps(point) == res.max_tps

    @pytest.mark.parametrize("params", [
        PayoffParams(t=5.0, r=3.0, p=1.0, s=0.0),
        PayoffParams(t=5.0, r=3.0, p=1.0, s=-2.0, self_play=False)])
    def test_array_scoring_matches_scalar_reference(self, params):
        scores = [sum(cell_total_payoff(p, Coord(i, j), params)
                      for i in range(3) for j in range(3))
                  for p in (Pattern.from_board(3, code)
                            for code in range(1 << 9))]
        res = brute_force_oracle(3, params)
        assert res.max_tps == max(scores)
        assert res.n_optima == scores.count(max(scores))

    @pytest.mark.parametrize("params", [
        DEFAULT_PARAMS, PayoffParams(t=5.0, r=3.0, p=1.0, s=0.0),
        PayoffParams(t=5.0, r=3.0, p=1.0, s=-2.0, self_play=False),
        PayoffParams(self_play=False)])
    @pytest.mark.parametrize("n", [3, 4])
    def test_orbit_skip_matches_per_optimum_canonical_forms(self, n, params):
        res = brute_force_oracle(n, params)
        assert (res.max_tps, res.n_optima, res.representatives) == ref_oracle(
            n, params)

    def test_pair_count_matches_the_forward_neighbor_count(self):
        rng = np.random.default_rng(0)
        for n in range(3, 13):
            rows = rng.integers(0, 2, size=(200, n * n), dtype=np.uint8)
            rows[0], rows[1] = 0, 1
            want = ref_pair_count(rows, n).tolist()
            boards = pack_rows(rows)
            assert [pair_count(b, n) for b in boards] == want
            # the dtypes that hold an n x n board, as in tps_of_boards
            for dt, top in ((np.int32, 5), (np.int64, 7), (np.uint64, 8)):
                if n in (5, 7, 8) and n <= top:
                    arr = np.array(boards, dtype=dt)
                    got = pair_count(arr, n, np.bitwise_count)
                    assert got.dtype == dt and got.tolist() == want

    def test_many_classes_without_self_play(self):
        params = PayoffParams(self_play=False)
        for n, optima, classes in ((3, 120, 6), (4, 192, 10)):
            res = brute_force_oracle(n, params)
            assert (res.n_optima, len(res.representatives)) == (optima,
                                                                classes)

    def test_canonical_form_matches_the_shift_loop(self):
        rng = np.random.default_rng(0)
        for n in (3, 4, 5):
            for _ in range(50):
                arr = (rng.random((n, n)) < rng.random()).astype(np.uint8)
                assert (min(map(bytes, _orbit(arr)))
                        == ref_canonical_bytes(arr))

    def test_size_limits(self):
        assert ORACLE_MAX_N == 5
        for n in (2, ORACLE_MAX_N + 1):
            with pytest.raises(ValueError):
                brute_force_oracle(n)


class TestSizeMustBeAnInteger:
    # each entry point refuses a float size before any work, so 3.0 cannot
    # make a Pattern with n = 3.0, nor optimal_tps(6.0) answer 387.0
    ENTRY_POINTS = {
        "Pattern": lambda n: Pattern(n, (0,) * 9),
        "init_ca": lambda n: init_ca(CaConfig(builtin_set(8)), n,
                                     random.Random(0)),
        "run_ga": lambda n: run_ga(GaConfig(max_iterations=1), n),
        "point_filled": lambda n: point_filled(n + 1),
        "construct_optimal_odd": lambda n: construct_optimal_odd(n + 2),
        "brute_force_oracle": brute_force_oracle,
        "optimal_tps": lambda n: optimal_tps(n + 3),
    }

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_refuses_a_float(self, name):
        with pytest.raises(PatternError, match=r"integer, got \d\.0"):
            self.ENTRY_POINTS[name](3.0)

    def test_pattern_names_no_fractional_cell_count(self):
        with pytest.raises(PatternError, match="integer, got 3.5"):
            Pattern(3.5, (0,) * 12)

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_takes_a_numpy_int(self, name):
        self.ENTRY_POINTS[name](np.int64(3))

    @pytest.mark.parametrize("call, match", [
        (lambda: Pattern(2, (0,) * 4), "side length must be >= 3, got 2"),
        (lambda: point_filled(2), "side length must be >= 3, got 2"),
        (lambda: optimal_tps(2), "side length must be >= 3, got 2"),
        (lambda: construct_optimal_odd(4), "odd and >= 5, got 4"),
        (lambda: brute_force_oracle(6), "3 <= n <= 5, got 6"),
    ])
    def test_integers_out_of_range_keep_their_messages(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestSeeds:
    def test_deterministic(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)

    def test_spread(self):
        seeds = {derive_seed(1, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(0, 0) != derive_seed(1, 0)


class TestExperiments:
    def test_validates_inputs(self):
        cfg = CaConfig(builtin_set(8))
        with pytest.raises(ValueError):
            run_experiment(cfg, 6, 0)
        for not_a_config in ("annealing", None, builtin_set(8)):
            for jobs in (1, 2):
                with pytest.raises(ValueError, match="CaConfig or a GaConfig"):
                    run_experiment(not_a_config, 6, 5, jobs=jobs)
        for jobs in (0, -4):
            with pytest.raises(ValueError):
                run_experiment(cfg, 6, 5, jobs=jobs)
        with pytest.raises(ValueError, match="no start pattern"):
            run_experiment(GaConfig(max_iterations=2), 4, 2,
                           start=Pattern.zeros(5))

    def test_ca_summary_consistency(self):
        cfg = CaConfig(builtin_set(8), t_limit=60, seed=2)
        summary = run_experiment(cfg, 6, 10)
        assert summary.n_runs == 10
        assert len(summary.runs) == 10
        ws = [w for w, _, _ in summary.runs]
        assert summary.w_max_max == max(ws)
        assert summary.w_max_avrg == pytest.approx(sum(ws) / 10)
        assert sum(c for _, c in summary.wealth_histogram) == 10
        assert 0 <= summary.n_opt_found <= 10
        assert summary.t_min <= summary.t_avrg <= summary.t_max

    def test_runs_are_seeded_from_the_config(self):
        k = DEFAULT_PARAMS.k
        for cfg, n in ((CaConfig(builtin_set(52), t_limit=30), 7),
                       (GaConfig(population_size=10, max_iterations=300,
                                 target_fitness=172.0), 4)):
            runs = {}
            for s in (0, 5):
                runs[s] = run_experiment(dataclasses.replace(cfg, seed=s),
                                         n, 4).runs
                direct = []
                for i in range(4):
                    run_cfg = dataclasses.replace(cfg, seed=derive_seed(s, i))
                    if isinstance(cfg, GaConfig):
                        res = run_ga(run_cfg, n)
                        direct.append((res.best_fitness / (k * n * n),
                                       res.iterations, False))
                    else:
                        res = run_ca(run_cfg, n=n)
                        direct.append((res.w_max, res.t_max, res.stable))
                assert runs[s] == tuple(direct)
            assert runs[5] != runs[0]

    def test_ga_experiment_reaches_small_optimum(self):
        cfg = GaConfig(population_size=16, max_iterations=500,
                       target_fitness=91.0, seed=0)
        summary = run_experiment(cfg, 3, 5)
        assert summary.n_opt_found == 5

    def test_optimal_runs_are_counted_in_exact_tps(self):
        # turning a cooperator with exactly two defector neighbours into a
        # defector costs one TPS unit (c1 + 2 c2 = 7 - 8); at n = 35 that is
        # less than the 4-decimal rounding step of wealth
        n = 35
        optimum = construct_optimal_odd(n)
        cells, codes = list(optimum.cells), optimum.codes.ravel().tolist()
        cells[next(c for c, code in enumerate(codes)
                   if code < 256 and code.bit_count() == 2)] = 1
        start = Pattern(n, tuple(cells))
        goal = optimal_tps(n)
        assert tps(start) == goal - 1
        assert round(wealth(start), 4) == round(goal / (9 * n * n), 4)
        cfg = CaConfig(builtin_set(52), t_limit=0)

        def found(cfg, **kw):
            return run_experiment(cfg, n, 1, start=start, **kw).n_opt_found

        assert found(cfg) == 0
        assert found(dataclasses.replace(cfg, target_tps=goal - 1)) == 1
        assert found(cfg, params=PayoffParams(t=4.0)) is None

    def test_parallel_matches_serial(self):
        for cfg, start in ((CaConfig(builtin_set(8), t_limit=40, seed=7),
                            None),
                           (GaConfig(population_size=12, max_iterations=300,
                                     seed=7), None),
                           (CaConfig(builtin_set(8), t_limit=20, seed=7),
                            point_filled(6))):
            a = run_experiment(cfg, 6, 8, start=start, jobs=1)
            b = run_experiment(cfg, 6, 8, start=start, jobs=2)
            assert a == b
        # the stable lattice start is kept from t = 0
        assert a.runs == ((wealth(start), 0, True),) * 8

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The sizes of the pools run_experiment opens; they run inline."""
        sizes = []

        class InlinePool:  # records the pool size, runs in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        # run_experiment imports the pool from here when it opens one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        return sizes

    def test_pool_has_no_more_workers_than_runs(self, pool_sizes,
                                                monkeypatch):
        # pinned, so that the CPU cap does not decide the size on a small host
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 8)
        cfg = CaConfig(builtin_set(8), t_limit=10, seed=3)
        serial = run_experiment(cfg, 6, 2, jobs=1)
        assert run_experiment(cfg, 6, 2, jobs=4) == serial
        assert pool_sizes == [2]
        run_experiment(cfg, 6, 1, jobs=4)  # one run needs no pool
        assert pool_sizes == [2]

    @pytest.mark.parametrize("cpus, size", [(2, [2]), (1, []), (None, [])])
    def test_pool_has_no_more_workers_than_cpus(self, pool_sizes, monkeypatch,
                                                cpus, size):
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: cpus)
        cfg = CaConfig(builtin_set(8), t_limit=10, seed=3)
        serial = run_experiment(cfg, 6, 8, jobs=1)
        assert run_experiment(cfg, 6, 8, jobs=64) == serial
        assert pool_sizes == size

    def test_import_leaves_the_pool_modules_unloaded(self):
        # only run_experiment with more than one worker needs them
        src = str(Path(analysis.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", "import sys, wealthca, wealthca.cli; "
             "print(sorted(m for m in sys.modules if m.startswith("
             "('multiprocessing', 'concurrent'))))"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
