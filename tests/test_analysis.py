import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wealthca.analysis import (ORACLE_MAX_N, _canonical_bytes,
                               brute_force_oracle,
                               construct_optimal_odd, count_dominoes,
                               count_points, derive_seed, detect_singularities,
                               n_domino_formula, n_point_formula,
                               optimal_tps, point_filled, run_experiment,
                               structure_report, tps_formula_odd,
                               wealth_formula_odd)
from wealthca.ca import CaConfig
from wealthca.ga import GaConfig
from wealthca.grid import (Coord, Pattern, PatternError, parse,
                          symmetry_images, transform, window_codes)
from wealthca.payoff import PayoffParams, cell_total_payoff, tps, wealth
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
            seen[window] = (Template.from_rows(window, t.label, t.family) if t
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

    def test_five_matches_exhaustive_search(self):
        oracle = brute_force_oracle(5)
        assert oracle.max_tps == 265.0
        assert oracle.n_optima == 50
        assert tps(construct_optimal_odd(5)) == oracle.max_tps

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

    def test_canonical_form_matches_the_shift_loop(self):
        rng = np.random.default_rng(0)
        for n in (3, 4, 5):
            for _ in range(50):
                arr = (rng.random((n, n)) < rng.random()).astype(np.uint8)
                assert _canonical_bytes(arr) == ref_canonical_bytes(arr)

    def test_size_limits(self):
        assert ORACLE_MAX_N == 5
        for n in (2, ORACLE_MAX_N + 1):
            with pytest.raises(ValueError):
                brute_force_oracle(n)


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
        cfg = CaConfig(builtin_set(8), t_limit=60)
        summary = run_experiment(cfg, 6, 10, seed=2)
        assert summary.n_runs == 10
        assert len(summary.runs) == 10
        ws = [w for w, _, _ in summary.runs]
        assert summary.w_max_max == max(ws)
        assert summary.w_max_avrg == pytest.approx(sum(ws) / 10)
        assert sum(c for _, c in summary.wealth_histogram) == 10
        assert 0 <= summary.n_opt_found <= 10
        assert summary.t_min <= summary.t_avrg <= summary.t_max

    def test_ga_experiment_reaches_small_optimum(self):
        cfg = GaConfig(population_size=16, max_iterations=500,
                       target_fitness=91.0)
        summary = run_experiment(cfg, 3, 5, seed=0)
        assert summary.n_opt_found == 5

    def test_optimal_runs_are_counted_in_exact_tps(self):
        # turning a cooperator with exactly two defector neighbours into a
        # defector costs one TPS unit (c1 + 2 c2 = 7 - 8); at n = 35 that is
        # less than the 4-decimal rounding step of wealth
        n = 35
        cells = list(construct_optimal_odd(n).cells)
        codes = window_codes(cells, n).tolist()
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
        for cfg, start in ((CaConfig(builtin_set(8), t_limit=40), None),
                           (GaConfig(population_size=12, max_iterations=300),
                            None),
                           (CaConfig(builtin_set(8), t_limit=20),
                            point_filled(6))):
            a = run_experiment(cfg, 6, 8, start=start, seed=7, jobs=1)
            b = run_experiment(cfg, 6, 8, start=start, seed=7, jobs=2)
            assert a == b
        # the stable lattice start is kept from t = 0
        assert a.runs == ((wealth(start), 0, True),) * 8
