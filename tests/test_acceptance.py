"""End-to-end acceptance checks, one printed PASS/FAIL verdict per criterion.

Statistical criteria run 100 independent seeded trials each and compare the
pass counts against fixed floors; everything is deterministic for the fixed
master seed below, so the whole suite is reproducible bit for bit.
"""

import itertools
import random
import sys
import time

import numpy as np

from wealthca.analysis import (brute_force_oracle, construct_optimal_odd,
                               point_filled, run_experiment, structure_report,
                               tps_formula_odd)
from wealthca.ca import CaConfig, generation, init_ca
from wealthca.ga import GaConfig
from wealthca.grid import Coord, Pattern, SYMMETRY_OPS, transform
from wealthca.payoff import expected_wealth, tps, wealth
from wealthca.templates import (Template, builtin_set, complete_under_symmetry,
                                extract_templates, match_except_center,
                                match_full)

ACCEPTANCE_SEED = 1


def verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_1_closed_form_structure():
    expected = {
        5: (265, 4, 0, 8),
        7: (522, 6, 3, 15),
        9: (865, 8, 8, 24),
        11: (1294, 10, 15, 35),
        13: (1809, 12, 24, 48),
        15: (2410, 14, 35, 63),
    }
    t0 = time.perf_counter()
    ok = True
    for n, (total, dominoes, points, ones) in expected.items():
        p = construct_optimal_odd(n)
        rep = structure_report(p)
        ok &= (tps(p) == total == tps_formula_odd(n)
               and rep.dominoes == dominoes
               and rep.points == points
               and rep.ones == ones
               and rep.singularities == 1)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    verdict(1, ok, f"constructed odd optima match the closed forms for "
                   f"n=5..15 in {elapsed:.2f}s")


def test_criterion_2_oracle_and_small_ga():
    t0 = time.perf_counter()
    o3 = brute_force_oracle(3)
    o4 = brute_force_oracle(4)
    oracle_time = time.perf_counter() - t0
    ok = o3.max_tps == 91.0 and o4.max_tps == 172.0 and oracle_time < 10.0
    hits = {}
    for n, optimum in ((3, 91.0), (4, 172.0)):
        cfg = GaConfig(max_iterations=10_000, target_fitness=optimum,
                       seed=ACCEPTANCE_SEED)
        summary = run_experiment(cfg, n, 100)
        hits[n] = summary.n_opt_found
        ok &= summary.n_opt_found >= 95
    verdict(2, ok, f"exhaustive optima 91/172 in {oracle_time:.1f}s; GA hit "
                   f"them on {hits[3]}/100 (n=3) and {hits[4]}/100 (n=4) seeds")


def test_criterion_3_ga_reaches_known_optima():
    hits = {}
    ok = True
    for n, optimum in ((5, 265.0), (6, 387.0)):
        cfg = GaConfig(max_iterations=10_000, target_fitness=optimum,
                       seed=ACCEPTANCE_SEED)
        summary = run_experiment(cfg, n, 100)
        hits[n] = summary.n_opt_found
        ok &= summary.n_opt_found >= 90
    verdict(3, ok, f"GA with defaults found 265 on {hits[5]}/100 (n=5) and "
                   f"387 on {hits[6]}/100 (n=6) seeds")


def test_criterion_4_even_rule_convergence():
    rule8 = builtin_set(8)
    cfg6 = CaConfig(rule8, t_limit=2000, seed=ACCEPTANCE_SEED)
    s6 = run_experiment(cfg6, 6, 100)
    cfg10 = CaConfig(rule8, t_limit=5000, seed=ACCEPTANCE_SEED)
    s10 = run_experiment(cfg10, 10, 100)
    ok = (s6.n_opt_found == 100 and s6.n_stable == 100
          and 10 <= s6.t_avrg <= 120 and s10.n_opt_found >= 95)
    verdict(4, ok, f"rule-8 runs: n=6 optimal {s6.n_opt_found}/100 with mean "
                   f"attainment t={s6.t_avrg:.1f}; n=10 optimal "
                   f"{s10.n_opt_found}/100")


def test_criterion_5_full_rule_statistics():
    cfg = CaConfig(builtin_set(52), t_limit=100, seed=ACCEPTANCE_SEED)
    s = run_experiment(cfg, 9, 100)
    ok = (s.n_stable == 100 and s.n_opt_found >= 15
          and s.w_max_avrg >= 1.180)
    verdict(5, ok, f"rule-52 n=9: {s.n_stable}/100 stable, optimum found "
                   f"{s.n_opt_found} times, mean best W={s.w_max_avrg:.4f}")


def test_criterion_6_transient_rule_statistics():
    cfg = CaConfig(builtin_set(36), t_limit=100, seed=ACCEPTANCE_SEED)
    s = run_experiment(cfg, 9, 100)
    worst = min(w for w, _, _ in s.runs)
    ok = s.n_opt_found >= 80 and worst >= 1.1840
    verdict(6, ok, f"rule-36 n=9: optimum found {s.n_opt_found}/100 times, "
                   f"worst best-of-run W={worst:.4f}")


def test_criterion_7_point_filled_large_grid():
    target = 7821.0
    cfg = CaConfig(builtin_set(36), t_limit=60, target_tps=target,
                   seed=ACCEPTANCE_SEED)
    s = run_experiment(cfg, 27, 100, start=point_filled(27))
    ok = s.n_opt_found >= 90
    verdict(7, ok, f"27x27 point-filled start reached TPS {target:g} within "
                   f"60 generations on {s.n_opt_found}/100 seeds")


def test_criterion_8_expected_wealth_curve():
    grid = [round(k * 0.001, 3) for k in range(1001)]
    values = [expected_wealth(x) for x in grid]
    best = max(values)
    argmax = grid[values.index(best)]
    ok = best == 1.125 and argmax == 0.750
    verdict(8, ok, f"mean-field wealth peaks at {best} for "
                   f"cooperation rate {argmax}")


def test_criterion_9_property_suites():
    ok = True
    # wealth is invariant under all eight symmetries of random patterns
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        p = Pattern(n, tuple(int(v) for v in rng.integers(0, 2, n * n)))
        ref = wealth(p)
        ok &= all(wealth(transform(p, op)) == ref for op in SYMMETRY_OPS)
    # fully matched patterns are fixed points over many generations
    lattice = point_filled(6)
    cfg = CaConfig(builtin_set(8), seed=ACCEPTANCE_SEED)
    state = init_ca(cfg, 6, random.Random(cfg.seed), start=lattice)
    for _ in range(1000):
        generation(state, cfg, random.Random(state.t))
    ok &= state.pattern == lattice
    # the full built-in set is already closed under symmetry
    full = builtin_set(52)
    ok &= complete_under_symmetry(full).values_set() == full.values_set()
    # extraction from the point lattice gives the orbit closure of T0-T3
    first_four = complete_under_symmetry(
        builtin_set(8)).values_set() & frozenset(
            t.values for t in builtin_set(8).templates[:4])
    ok &= extract_templates(lattice).values_set() == first_four
    # matching predicates agree with direct window comparison, exhaustively
    c = Coord(2, 2)
    for bits in itertools.product((0, 1), repeat=9):
        cells = [0] * 25
        k = 0
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                cells[(2 + di) * 5 + (2 + dj)] = bits[k]
                k += 1
        p = Pattern(5, tuple(cells))
        window = tuple(tuple(bits[3 * r + col] for col in range(3))
                       for r in range(3))
        for t in full:
            outer_eq = (t.outer_code()
                        == Template.from_rows(window).outer_code())
            ok &= match_except_center(p, c, t) == outer_eq
            ok &= match_full(p, c, t) == (t.values == window)
    verdict(9, ok, "symmetry invariance, fixed-point soundness, closure, "
                   "extraction and matching properties all hold")
