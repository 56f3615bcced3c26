import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from wealthca.analysis import derive_seed
from wealthca.ca import (CaConfig, CaState, _Buckets, _hit_table, _rate_table,
                         generation, init_ca, is_stable, micro_step, run_ca)
from wealthca.grid import Coord, Pattern, pack, window_codes
from wealthca.payoff import PayoffParams, pair_count, tps, wealth
from wealthca.templates import (Template, TemplateSet, builtin_set,
                                extract_templates, match_except_center)

RULE8 = builtin_set(8)
RULE36 = builtin_set(36)
RULE52 = builtin_set(52)
# no templates and no noise: no micro-step can change a cell
FROZEN = CaConfig(TemplateSet(()), selection="sequential", pi_01=0.0,
                  pi_10=0.0)


def stepped_under_rule8():
    """An 8x8 state after one random-selection generation and one
    sequential micro-step under rule 8, where a rule-8 micro-step could
    still change a cell."""
    cfg = CaConfig(RULE8, init_density=0.3)
    rng = random.Random(3)
    state = init_ca(cfg, 8, rng)
    generation(state, cfg, rng)
    micro_step(state, dataclasses.replace(cfg, selection="sequential"), rng)
    centers = cfg.hit_table[0]
    assert any(centers[c & 255] and c >> 8 not in centers[c & 255]
               for c in window_codes(state.cells, 8).tolist())
    return state, rng


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
        # micro_step reads the sampler's window codes; at every cell it must
        # hit the one template whose outer ring is window_codes(...) & 255
        rng = random.Random(1)
        cells = [rng.randrange(2) for _ in range(49)]
        for cell, code in enumerate(window_codes(cells, 7).tolist()):
            cfg = CaConfig(TemplateSet((Template(code),)),
                           selection="sequential", pi_01=0.0, pi_10=0.0)
            state = CaState(n=7, cells=list(cells), hits=[0] * 49,
                            cursor=cell)
            assert not micro_step(state, cfg, rng)
            assert state.hits[cell] == 1

    def test_follows_the_config_it_is_given(self):
        state, rng = stepped_under_rule8()
        before = list(state.cells)
        for _ in range(200):
            assert not micro_step(state, FROZEN, rng)
        assert state.cells == before

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

        # the reference selection law: n^2 micro_step calls, one
        # randrange each (generation skips the null steps)
        cfg = CaConfig(RULE52, pi_01=0.0, pi_10=0.0)
        rng = Recorder(3)
        state = init_ca(cfg, 30, rng)
        for _ in range(900):
            micro_step(state, cfg, rng)
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

    @pytest.mark.parametrize("selection", ["random", "sequential"])
    def test_follows_the_config_it_is_given(self, selection):
        state, rng = stepped_under_rule8()
        before = list(state.cells)
        frozen = dataclasses.replace(FROZEN, selection=selection)
        for _ in range(3):
            assert not generation(state, frozen, rng)
        assert state.cells == before

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
        cfg = CaConfig(RULE8, t_limit=2000, seed=3)
        res = run_ca(cfg, n=6)
        assert res.stable
        assert res.tps_final == 387.0
        assert res.t_max <= res.generations
        assert res.stop_reason == "stable"

    def test_target_tps_truncates(self):
        cfg = CaConfig(RULE8, t_limit=100, seed=3, target_tps=300.0)
        res = run_ca(cfg, n=6)
        assert res.trace[-1].tps >= 300.0
        assert res.generations <= 100

    def test_stop_reason_stable(self, lattice6):
        res = run_ca(CaConfig(RULE8, t_limit=50, seed=0), start=lattice6)
        assert (res.stop_reason, res.changes) == ("stable", 0)

    def test_stop_reason_target(self):
        # rule 36 has no stable pattern at odd n
        res = run_ca(CaConfig(RULE36, t_limit=100, seed=9, target_tps=855.0),
                     n=9)
        assert res.stop_reason == "target"
        assert res.trace[-1].tps >= 855.0
        assert all(row.tps < 855.0 for row in res.trace[:-1])

    def test_stop_reason_t_limit(self):
        res = run_ca(CaConfig(RULE36, t_limit=5, seed=9), n=9)
        assert res.stop_reason == "t_limit"
        assert res.generations == 5
        assert not res.stable
        res = run_ca(CaConfig(RULE8, t_limit=0, seed=9), n=6)
        assert (res.stop_reason, res.generations, res.changes) == (
            "t_limit", 0, 0)

    @pytest.mark.parametrize("selection", ["random", "sequential"])
    def test_changes_bound_the_net_flips(self, selection):
        # flips per generation >= cells that differ, with the same parity
        seen = []
        cfg = CaConfig(RULE36, t_limit=30, seed=4, selection=selection)
        res = run_ca(cfg, n=9, on_generation=lambda s: seen.append(
            (s.cells[:], s.changes)))
        assert res.changes == seen[-1][1] > 0
        for (a, flips_a), (b, flips_b) in zip(seen, seen[1:]):
            diff = sum(x != y for x, y in zip(a, b))
            assert flips_b - flips_a >= diff
            assert (flips_b - flips_a - diff) % 2 == 0

    def test_sequential_changes_count_micro_step_changes(self):
        cfg = CaConfig(RULE52, selection="sequential")
        rng = random.Random(2)
        state = init_ca(cfg, 7, rng)
        flips = sum(micro_step(state, cfg, rng) for _ in range(200))
        assert state.changes == flips > 0

    @pytest.mark.parametrize("params", [
        PayoffParams(), PayoffParams(t=5.0, r=3.0, p=1.0, self_play=False)])
    @pytest.mark.parametrize("selection", ["random", "sequential"])
    def test_trace_tps_is_the_pattern_tps(self, selection, params):
        # both selections read TPS off the sampler's counters; it must equal
        # the pattern's TPS exactly
        seen = []
        cfg = CaConfig(RULE36, t_limit=30, seed=4, selection=selection)
        res = run_ca(cfg, n=9, params=params,
                     on_generation=lambda s: seen.append(tps(s.pattern,
                                                             params)))
        assert [row.tps for row in res.trace] == seen
        assert len(set(seen)) > 1

    def test_golden_sequential_runs(self):
        # sequential runs of the engine that packed micro_step's window code
        # from the grid and judged each generation by a pass over the grid:
        # the same draws must give the same runs
        runs = []
        for i in range(8):
            res = run_ca(CaConfig(RULE52, selection="sequential", t_limit=40,
                                  seed=derive_seed(3, i)), n=9)
            runs.append((res.changes, res.generations, res.tps_final,
                         res.stop_reason))
        assert runs == [
            (28, 3, 862.0, "stable"), (37, 3, 859.0, "stable"),
            (39, 3, 864.0, "stable"), (49, 3, 862.0, "stable"),
            (34, 3, 864.0, "stable"), (36, 3, 865.0, "stable"),
            (35, 6, 862.0, "stable"), (35, 3, 865.0, "stable")]

    def test_t_max_is_first_attainment(self):
        cfg = CaConfig(RULE36, t_limit=40, seed=9)
        res = run_ca(cfg, n=9)
        peak = max(row.wealth for row in res.trace)
        first = next(row.t for row in res.trace if row.wealth == peak)
        assert res.w_max == peak
        assert res.t_max == first


def _random_template_set(draw):
    """An extracted set (ambiguous rings included) or a random code set."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 6))
        cells = draw(st.lists(st.integers(0, 1), min_size=n * n,
                              max_size=n * n))
        return extract_templates(Pattern(n, tuple(cells)),
                                 complete=draw(st.booleans()))
    codes = draw(st.sets(st.integers(0, 511), max_size=80))
    return TemplateSet(tuple(Template(c) for c in sorted(codes)))


probabilities = st.one_of(st.just(0.0), st.just(1.0),
                          st.floats(0.0, 1.0, exclude_min=True,
                                    exclude_max=True))


def assert_buckets_rebuilt(state, table):
    bk = state._buckets
    fresh = _Buckets(state.cells, state.n, table)
    assert bk.codes == fresh.codes == window_codes(state.cells,
                                                   state.n).tolist()
    assert bk.slot == fresh.slot
    assert [sorted(m) for m in bk.members] == fresh.members
    board = pack(state.cells)
    assert bk.ones == fresh.ones == board.bit_count()
    assert bk.pairs == fresh.pairs == pair_count(board, state.n)
    for cell, b in enumerate(bk.slot):
        if b >= 0:
            assert bk.members[b][bk.pos[cell]] == cell


class TestJumpGeneration:
    @given(st.data())
    def test_rate_table_is_the_micro_step_change_probability(self, data):
        ts = _random_template_set(data.draw)
        pi_01, pi_10 = data.draw(probabilities), data.draw(probabilities)
        rates, bucket = _rate_table(ts, pi_01, pi_10)
        assert len(rates) <= 4
        assert all(r > 0 for r in rates)
        for code in range(512):
            centers = [t.center for t in ts
                       if t.outer_code() == code & 255]
            a = code >> 8
            if centers:
                expect = sum(c != a for c in centers) / len(centers)
            else:
                expect = pi_10 if a else pi_01
            got = rates[bucket[code]] if bucket[code] >= 0 else 0.0
            assert got == expect

    @settings(deadline=None)
    @given(st.data())
    def test_buckets_match_a_rebuild_after_every_generation(self, data):
        ts = _random_template_set(data.draw)
        n = data.draw(st.integers(3, 9))
        cells = data.draw(st.lists(st.integers(0, 1), min_size=n * n,
                                   max_size=n * n))
        cfg = CaConfig(ts, pi_01=data.draw(probabilities),
                       pi_10=data.draw(probabilities))
        table = _rate_table(ts, cfg.pi_01, cfg.pi_10)
        state = CaState(n=n, cells=list(cells), hits=[0] * (n * n))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        for t in range(1, 6):
            before = state.changes
            changed = generation(state, cfg, rng)
            assert state.t == t
            assert changed == (state.changes > before)
            assert_buckets_rebuilt(state, table)

    @settings(deadline=None)
    @given(st.data())
    def test_live_buckets_give_the_full_stable_check(self, data):
        n = data.draw(st.integers(3, 6))
        cells = data.draw(st.lists(st.integers(0, 1), min_size=n * n,
                                   max_size=n * n))
        if data.draw(st.booleans()):  # every window matches: often stable
            ts = extract_templates(Pattern(n, tuple(cells)),
                                   complete=data.draw(st.booleans()))
        else:
            ts = _random_template_set(data.draw)
        cfg = CaConfig(ts, pi_01=data.draw(probabilities),
                       pi_10=data.draw(probabilities))
        state = CaState(n=n, cells=list(cells), hits=[0] * (n * n))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        for _ in range(data.draw(st.integers(0, 3))):
            generation(state, cfg, rng)  # keeps the buckets current
        _, full_ok = cfg.hit_table
        codes = window_codes(state.cells, n)
        assert is_stable(state, cfg) == full_ok[codes & 255, codes >> 8].all()

    def test_every_micro_step_flips_when_every_rate_is_one(self):
        cfg = CaConfig(TemplateSet(()), pi_01=1.0, pi_10=1.0)
        rng = random.Random(8)
        state = init_ca(cfg, 5, rng)
        for t in range(1, 4):
            assert generation(state, cfg, rng)
            assert state.changes == 25 * t

    def test_micro_step_keeps_the_buckets_current(self):
        cfg = CaConfig(RULE36, init_density=0.3)
        rng = random.Random(6)
        state = init_ca(cfg, 8, rng)
        generation(state, cfg, rng)
        bk = state._buckets
        while not micro_step(state, cfg, rng):
            pass
        assert state._buckets is bk
        assert_buckets_rebuilt(state, cfg.rate_table)
        generation(state, cfg, rng)
        assert state._buckets is bk
        assert_buckets_rebuilt(state, cfg.rate_table)

    @settings(deadline=None)
    @given(st.data())
    def test_buckets_match_a_rebuild_after_every_micro_step(self, data):
        if data.draw(st.booleans()):
            ts = builtin_set(data.draw(st.sampled_from([8, 36, 52])))
        else:
            ts = _random_template_set(data.draw)
        n = data.draw(st.integers(3, 7))
        cells = data.draw(st.lists(st.integers(0, 1), min_size=n * n,
                                   max_size=n * n))
        cfg = CaConfig(ts, pi_01=data.draw(probabilities),
                       pi_10=data.draw(probabilities))
        by_selection = {s: dataclasses.replace(cfg, selection=s)
                        for s in ("random", "sequential")}
        state = CaState(n=n, cells=list(cells), hits=[0] * (n * n))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        steps = data.draw(st.lists(
            st.tuples(st.sampled_from(["micro_step", "generation"]),
                      st.sampled_from(["random", "sequential"])),
            min_size=1, max_size=40))
        bk = None
        for step, selection in steps:
            step_cfg = by_selection[selection]
            before = state.changes
            if step == "micro_step":
                changed = micro_step(state, step_cfg, rng)
                assert state.changes == before + changed
            else:
                generation(state, step_cfg, rng)
            bk = bk or state._buckets
            assert state._buckets is bk  # kept, never rebuilt
            assert_buckets_rebuilt(state, cfg.rate_table)

    def test_zero_rates_but_unstable_runs_to_the_limit(self):
        # no rule-52 template matches an all-ones ring, and without noise
        # no cell can change: not stable, yet nothing ever moves
        start = Pattern(5, (1,) * 25)
        cfg = CaConfig(RULE52, pi_01=0.0, pi_10=0.0, t_limit=30)
        res = run_ca(cfg, start=start)
        assert res.generations == 30
        assert res.final == start
        assert not res.stable
        assert (res.stop_reason, res.changes) == ("t_limit", 0)
