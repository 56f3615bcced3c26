import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wealthca.grid import (Coord, Pattern, SYMMETRY_OPS, pack, pack_rows,
                           parse, transform)
from wealthca.payoff import (DEFAULT_PARAMS, PayoffParams, Characteristic,
                             cell_total_payoff, cell_utility, characteristic,
                             expected_wealth, pair_count, pair_payoff, tps,
                             tps_of_boards, tps_of_bits, total_payoff_grid,
                             wealth)


def patterns(max_n=8):
    return st.integers(3, max_n).flatmap(
        lambda n: st.lists(st.integers(0, 1), min_size=n * n,
                           max_size=n * n)
        .map(lambda bits: Pattern(n, tuple(bits))))


# quarter steps keep every partial sum exact, so kernel and reference must
# agree to the bit whatever order they add in
quarters = st.integers(-20, 20).map(lambda k: k / 4)
payoff_params = st.one_of(
    st.sampled_from([DEFAULT_PARAMS, PayoffParams(self_play=False),
                     PayoffParams(5.0, 3.0, 1.0, 0.0),
                     PayoffParams(5.0, 3.0, 1.0, 0.0, self_play=False)]),
    st.builds(PayoffParams, quarters, quarters, quarters, quarters,
              st.booleans()))


class TestPairPayoff:
    def test_default_table(self):
        assert pair_payoff(0, 0) == 1.0   # mutual cooperation
        assert pair_payoff(1, 0) == 3.0   # temptation
        assert pair_payoff(0, 1) == 0.0   # sucker
        assert pair_payoff(1, 1) == 0.0   # mutual defection

    def test_custom_table(self):
        params = PayoffParams(t=5.0, r=3.0, p=1.0, s=0.5)
        assert pair_payoff(1, 1, params) == 1.0
        assert pair_payoff(0, 1, params) == 0.5


class TestCellPayoff:
    def test_all_cooperators_cell_gets_k(self):
        p = Pattern.zeros(5)
        assert cell_total_payoff(p, Coord(2, 2)) == 9.0
        assert cell_utility(p, Coord(2, 2)) == 1.0

    def test_isolated_defector_exploits_eight(self, lattice6):
        # a lone 1 plays T against 8 zeros and P against itself
        assert cell_total_payoff(lattice6, Coord(0, 0)) == 24.0
        assert cell_utility(lattice6, Coord(0, 0)) == pytest.approx(24 / 9)

    def test_all_defectors_get_nothing(self):
        p = Pattern(4, (1,) * 16)
        assert cell_total_payoff(p, Coord(1, 3)) == 0.0

    def test_no_self_play_drops_one_opponent(self):
        params = PayoffParams(self_play=False)
        p = Pattern.zeros(4)
        assert params.k == 8
        assert cell_total_payoff(p, Coord(0, 0), params) == 8.0
        assert cell_utility(p, Coord(0, 0), params) == 1.0

    @given(patterns(), payoff_params)
    def test_grid_matches_per_cell_loop(self, p, params):
        grid = total_payoff_grid(p, params)
        for i in range(p.n):
            for j in range(p.n):
                assert grid[i, j] == cell_total_payoff(p, Coord(i, j), params)


class TestTpsAndWealth:
    def test_all_cooperate(self):
        p = Pattern.zeros(5)
        assert tps(p) == 9 * 25
        assert wealth(p) == 1.0

    def test_all_defect(self):
        p = Pattern(5, (1,) * 25)
        assert tps(p) == 0.0
        assert wealth(p) == 0.0

    def test_point_lattice_even(self, lattice6):
        assert tps(lattice6) == 387.0
        assert wealth(lattice6) == pytest.approx(387 / (9 * 36))
        assert wealth(lattice6) == pytest.approx(1.19444, abs=1e-5)

    def test_optimal_odd_sizes(self, optimal5, optimal7):
        assert tps(optimal5) == 265.0
        assert wealth(optimal5) == pytest.approx(1.17778, abs=1e-5)
        assert tps(optimal7) == 522.0
        assert wealth(optimal7) == pytest.approx(1.18367, abs=1e-5)

    def test_tps_of_bits_matches_pattern_path(self, optimal7):
        assert tps_of_bits(pack(optimal7), 7) == 522.0
        assert tps_of_bits(pack(optimal7), 7) == (
            total_payoff_grid(optimal7).sum())

    @given(patterns())
    def test_invariant_under_symmetries_and_shifts(self, p):
        ref = tps(p)
        for op in SYMMETRY_OPS:
            assert tps(transform(p, op)) == ref
        assert tps(transform(p, "shift", 1, 2)) == ref

    @given(patterns())
    def test_tps_bounded_by_max_cell_income(self, p):
        # each cell can score at most K * T = 27 under the defaults
        assert 0.0 <= tps(p) <= 27 * p.n * p.n


class TestKernel:
    def test_default_coefficients(self):
        # TPS = 9 n^2 + 7 ones - 4 E
        assert DEFAULT_PARAMS.pair_sum == (9.0, 7.0, -4.0)

    def test_pair_sum_follows_replace_and_stays_out_of_equality(self):
        p = dataclasses.replace(DEFAULT_PARAMS, t=5.0, self_play=False)
        assert p.pair_sum == (8.0, 24.0, -8.0)
        assert "pair_sum" not in {f.name for f in dataclasses.fields(p)}
        assert PayoffParams() == DEFAULT_PARAMS
        assert hash(PayoffParams()) == hash(DEFAULT_PARAMS)

    @pytest.mark.parametrize("name", ["t", "r", "p", "s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_payoffs_rejected(self, name, value):
        # NaN made the oracle report max_tps -inf with no optima
        with pytest.raises(ValueError, match="finite"):
            PayoffParams(**{name: value})
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(DEFAULT_PARAMS, **{name: value})

    @given(patterns(12), payoff_params)
    def test_matches_scalar_reference(self, p, params):
        ref = sum(cell_total_payoff(p, Coord(i, j), params)
                  for i in range(p.n) for j in range(p.n))
        assert tps_of_bits(pack(p), p.n, params) == ref

    def test_rejects_tiny_grids_and_stray_bits(self):
        for board, n in ((0, 2), (1 << 9, 3), (-1, 3)):
            with pytest.raises(ValueError):
                tps_of_bits(board, n)


class TestArrayForm:
    # the dtypes whose shifts hold an n x n board: int32 keeps bit 30 clear
    # up to n = 5, int64 its sign bit up to n = 7
    @staticmethod
    def dtypes(n):
        return [dt for dt, top in ((np.int32, 5), (np.int64, 7),
                                   (np.uint64, 8)) if n <= top]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_equals_the_int_form(self, n):
        rng = np.random.default_rng(n)
        rows = rng.integers(0, 2, size=(300, n * n), dtype=np.uint8)
        rows[0], rows[1] = 0, 1
        boards = pack_rows(rows)
        for params in (DEFAULT_PARAMS, PayoffParams(3, 1, 0, 0),
                       PayoffParams(1, 3, 2, 0), PayoffParams(1.25, 3.5, 2.75,
                                                              0.5, False)):
            fits = [tps_of_bits(b, n, params) for b in boards]
            for dt in self.dtypes(n):
                arr = np.array(boards, dtype=dt)
                assert pair_count(arr, n, np.bitwise_count).tolist() == [
                    pair_count(b, n) for b in boards]
                assert tps_of_boards(arr, n, params).tolist() == fits

    def test_all_ones_at_n8_does_not_wrap(self):
        # four uint8 counts of 64 summed to 0 before they were widened
        full = np.array([2 ** 64 - 1], dtype=np.uint64)
        assert pair_count(full, 8, np.bitwise_count).tolist() == [256]
        assert pair_count(2 ** 64 - 1, 8) == 256

    def test_pair_sum_is_float_for_int_payoffs(self):
        # a negative int c2 cannot multiply uint64 pair counts
        assert all(type(c) is float for c in PayoffParams(3, 1, 0, 0).pair_sum)


class TestExpectedWealth:
    def test_boundary_values(self):
        assert expected_wealth(1.0) == DEFAULT_PARAMS.r
        assert expected_wealth(0.0) == DEFAULT_PARAMS.p

    def test_maximum_at_three_quarters(self):
        assert expected_wealth(0.75) == pytest.approx(1.125)
        for x in (0.5, 0.7, 0.74, 0.76, 0.8, 1.0):
            assert expected_wealth(x) < 1.125

    def test_quadratic_shape(self):
        # W(x) = 3x(1-x) + x^2 = 3x - 2x^2 for the default table
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert expected_wealth(x) == pytest.approx(3 * x - 2 * x * x)

    @given(st.floats(0.0, 1.0),
           payoff_params.map(
               lambda q: dataclasses.replace(q, self_play=False)))
    def test_bernoulli_mean_without_self_play(self, pi_c, params):
        # E[W] of a pattern whose cells defect independently with rate pi_d
        c0, c1, c2 = params.pair_sum
        pi_d = 1.0 - pi_c
        assert expected_wealth(pi_c, params) == pytest.approx(
            (c0 + c1 * pi_d + 4 * c2 * pi_d ** 2) / params.k, abs=1e-9)

    def test_self_play_is_ignored(self):
        # the curve keeps 9/8 at 3/4; the Bernoulli mean under self-play
        # (K = 9, the defaults) is (25 x - 16 x^2) / 9 = 13/12 there
        c0, c1, c2 = DEFAULT_PARAMS.pair_sum
        bernoulli = (c0 + c1 * 0.25 + 4 * c2 * 0.25 ** 2) / DEFAULT_PARAMS.k
        assert bernoulli == pytest.approx(13 / 12)
        assert expected_wealth(0.75) == pytest.approx(1.125)
        assert (expected_wealth(0.75, PayoffParams(self_play=False))
                == expected_wealth(0.75))

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            expected_wealth(1.5)
        with pytest.raises(ValueError):
            expected_wealth(-0.1)


class TestCharacteristic:
    def test_optimal5(self, optimal5):
        ch = characteristic(optimal5)
        assert ch == Characteristic(
            wealth=pytest.approx(1.17778, abs=1e-5),
            tps=265.0, n=5, area=25, ones=8, density=0.32)

    def test_optimal7(self, optimal7):
        ch = characteristic(optimal7)
        assert ch.tps == 522.0
        assert ch.ones == 15
        assert ch.density == pytest.approx(15 / 49)
        assert ch.wealth == pytest.approx(522 / (9 * 49))

    def test_wealth_is_tps_over_k_area(self):
        p = parse("010\n000\n000")
        ch = characteristic(p)
        assert ch.wealth == pytest.approx(ch.tps / (9 * 9))
        assert math.isclose(ch.density, 1 / 9)
