import math
import random

import pytest

from wealthca.ca import (CaConfig, CaState, _hit_table, generation, init_ca,
                         is_stable, micro_step, run_ca)
from wealthca.grid import Coord, Pattern, window_codes
from wealthca.payoff import wealth
from wealthca.templates import (Template, TemplateSet, builtin_set,
                                extract_templates, match_except_center)

RULE8 = builtin_set(8)
RULE36 = builtin_set(36)
RULE52 = builtin_set(52)


class TestConfig:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            CaConfig(RULE8, pi_01=1.5)
        with pytest.raises(ValueError):
            CaConfig(RULE8, init_density=-0.1)

    def test_selection_mode_validated(self):
        with pytest.raises(ValueError):
            CaConfig(RULE8, selection="spiral")

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            CaConfig(RULE8, t_limit=-1)


class TestInit:
    def test_zero_density_gives_zero_pattern(self):
        cfg = CaConfig(RULE8, init_density=0.0)
        state = init_ca(cfg, 6, random.Random(0))
        assert state.pattern == Pattern.zeros(6)
        assert state.t == 0

    def test_explicit_start_adopted(self, optimal5):
        cfg = CaConfig(RULE8)
        state = init_ca(cfg, 99, random.Random(0), start=optimal5)
        assert state.n == 5
        assert state.pattern == optimal5

    def test_density_mean(self):
        cfg = CaConfig(RULE8, init_density=0.25)
        rng = random.Random(42)
        ones = sum(sum(init_ca(cfg, 10, rng).cells) for _ in range(200))
        assert ones / (200 * 100) == pytest.approx(0.25, abs=0.02)


class TestMicroStep:
    def test_match_writes_template_center(self):
        # on an all-zero grid the lone-defector template matches everywhere,
        # so the first sequential step must set cell 0 to 1
        cfg = CaConfig(RULE8, selection="sequential", init_density=0.0)
        rng = random.Random(0)
        state = init_ca(cfg, 5, rng)
        assert micro_step(state, cfg, rng)
        assert state.cells[0] == 1
        assert state.hits[0] == 1

    def test_no_match_noise_clears_defector(self):
        # a fully defecting grid matches no template; with pi_10 = 1 the
        # visited cell must flip to 0
        cfg = CaConfig(RULE52, selection="sequential", pi_10=1.0)
        rng = random.Random(0)
        state = CaState(n=3, cells=[1] * 9, hits=[0] * 9)
        assert micro_step(state, cfg, rng)
        assert state.cells[0] == 0
        assert state.hits[0] == 0

    def test_no_match_noise_can_keep_zero(self):
        cfg = CaConfig(RULE52, selection="sequential", pi_01=0.0)
        rng = random.Random(0)
        cells = [1] * 9
        cells[0] = 0  # outer ring of cell 0 is all ones: no template match
        state = CaState(n=3, cells=cells, hits=[0] * 9)
        assert not micro_step(state, cfg, rng)
        assert state.cells[0] == 0

    def test_hit_flag_tracks_outer_matching(self):
        cfg = CaConfig(RULE36, selection="sequential", init_density=0.3)
        rng = random.Random(5)
        state = init_ca(cfg, 7, rng)
        for cell in range(49):
            micro_step(state, cfg, rng)
            p = state.pattern
            c = Coord(cell // 7, cell % 7)
            expect = any(match_except_center(p, c, t) for t in RULE36)
            assert state.hits[cell] == int(expect)

    def test_packs_the_window_code_layout(self):
        # micro_step packs the outer ring inline; at every cell it must hit
        # the one template whose outer ring is window_codes(...) & 255
        rng = random.Random(1)
        cells = [rng.randrange(2) for _ in range(49)]
        for cell, code in enumerate(window_codes(cells, 7).tolist()):
            cfg = CaConfig(TemplateSet((Template(code),)),
                           selection="sequential", pi_01=0.0, pi_10=0.0)
            state = CaState(n=7, cells=list(cells), hits=[0] * 49,
                            cursor=cell)
            assert not micro_step(state, cfg, rng)
            assert state.hits[cell] == 1

    def test_sequential_cursor_wraps(self):
        cfg = CaConfig(RULE8, selection="sequential", init_density=0.0)
        rng = random.Random(0)
        state = init_ca(cfg, 4, rng)
        for _ in range(16):
            micro_step(state, cfg, rng)
        assert state.cursor == 0

    def test_random_selection_covers_one_minus_inv_e(self):
        class Recorder(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                self.picked = []

            def randrange(self, *args):
                v = super().randrange(*args)
                self.picked.append(v)
                return v

        cfg = CaConfig(RULE52, pi_01=0.0, pi_10=0.0)
        rng = Recorder(3)
        state = init_ca(cfg, 30, rng)
        generation(state, cfg, rng)
        assert len(rng.picked) == 900
        coverage = len(set(rng.picked)) / 900
        assert coverage == pytest.approx(1 - 1 / math.e, abs=0.05)


class TestGeneration:
    def test_advances_time(self):
        cfg = CaConfig(RULE8, selection="sequential", init_density=0.0)
        rng = random.Random(0)
        state = init_ca(cfg, 5, rng)
        generation(state, cfg, rng)
        assert state.t == 1

    def test_stable_pattern_is_a_fixed_point(self, lattice6):
        cfg = CaConfig(RULE8, selection="sequential")
        rng = random.Random(0)
        state = init_ca(cfg, 6, rng, start=lattice6)
        assert is_stable(state, cfg)
        changed = generation(state, cfg, rng)
        assert not changed
        assert state.pattern == lattice6

    def test_odd_optimum_stable_only_under_full_rule(self, optimal7):
        rng = random.Random(0)
        for ts, expect in ((RULE8, False), (RULE36, False), (RULE52, True)):
            cfg = CaConfig(ts)
            state = init_ca(cfg, 7, rng, start=optimal7)
            assert is_stable(state, cfg) == expect

    def test_ring_with_both_centers_is_not_stable(self):
        # every window of p is a template, but 24 outer rings of the
        # extracted set carry both centers, so a micro-step may still flip
        rng = random.Random(0)
        p = Pattern(6, tuple(rng.randint(0, 1) for _ in range(36)))
        cfg = CaConfig(extract_templates(p), t_limit=0)
        ambiguous = [c for c in _hit_table(cfg.templates)[0]
                     if len(set(c)) == 2]
        assert len(ambiguous) == 24
        state = init_ca(cfg, 6, rng, start=p)
        assert not is_stable(state, cfg)
        assert not run_ca(cfg, start=p).stable
        assert generation(state, cfg, random.Random(1))

    def test_builtin_rules_have_no_ambiguous_rings(self):
        for ts in (RULE8, RULE36, RULE52):
            assert all(len(set(c)) <= 1 for c in _hit_table(ts)[0])


class TestRun:
    def test_requires_size_or_start(self):
        with pytest.raises(ValueError):
            run_ca(CaConfig(RULE8))

    def test_size_must_match_start(self, optimal5):
        with pytest.raises(ValueError):
            run_ca(CaConfig(RULE52), n=9, start=optimal5)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            run_ca(CaConfig(RULE8), n=0)

    def test_deterministic_trajectory(self):
        cfg = CaConfig(RULE8, t_limit=20, seed=77)
        a = run_ca(cfg, n=6)
        b = run_ca(cfg, n=6)
        assert a.final == b.final
        assert a.trace == b.trace

    def test_trace_wealth_matches_snapshots(self):
        snapshots = []
        cfg = CaConfig(RULE8, t_limit=10, seed=5)
        res = run_ca(cfg, n=6, on_generation=lambda s: snapshots.append(s.pattern))
        assert len(snapshots) == len(res.trace)
        for row, snap in zip(res.trace, snapshots):
            assert row.wealth == pytest.approx(wealth(snap))
        assert res.tps_final == res.trace[-1].tps

    def test_stops_when_stable(self, lattice6):
        cfg = CaConfig(RULE8, t_limit=50, seed=0)
        res = run_ca(cfg, start=lattice6)
        assert res.stable
        assert res.generations == 0
        assert res.w_max == pytest.approx(387 / 324)

    def test_even_grid_reaches_the_point_lattice(self):
        cfg = CaConfig(RULE8, t_limit=100, seed=3)
        res = run_ca(cfg, n=6)
        assert res.stable
        assert res.tps_final == 387.0
        assert res.t_max <= res.generations

    def test_target_tps_truncates(self):
        cfg = CaConfig(RULE8, t_limit=100, seed=3, target_tps=300.0)
        res = run_ca(cfg, n=6)
        assert res.trace[-1].tps >= 300.0
        assert res.generations <= 100

    def test_t_max_is_first_attainment(self):
        cfg = CaConfig(RULE36, t_limit=40, seed=9)
        res = run_ca(cfg, n=9)
        peak = max(row.wealth for row in res.trace)
        first = next(row.t for row in res.trace if row.wealth == peak)
        assert res.w_max == peak
        assert res.t_max == first
