import pytest
from hypothesis import given, strategies as st

import numpy as np

from wealthca.grid import (MOORE_OFFSETS, Pattern, PatternError, SYMMETRY_OPS,
                           WINDOW_WEIGHTS, pack, pack_rows, parse, serialize,
                           transform, window_codes, window_indices)

patterns = st.integers(3, 8).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)
    .map(lambda bits: Pattern(n, tuple(bits))))


class TestPattern:
    def test_rejects_small_sizes(self):
        with pytest.raises(PatternError):
            Pattern(2, (0, 0, 0, 0))

    def test_rejects_bad_values(self):
        with pytest.raises(PatternError):
            Pattern(3, (0, 1, 2) + (0,) * 6)

    def test_from_rows_reads_ints_and_digits(self):
        assert (Pattern.from_rows(["010", "000", "001"])
                == Pattern.from_rows([(0, 1, 0), (0, 0, 0), (0, 0, 1)])
                == Pattern(3, (0, 1, 0, 0, 0, 0, 0, 0, 1)))

    @pytest.mark.parametrize("rows", [["010", "0x0", "000"],
                                      [(0, 1, 0), (0, 0.5, 0), (0, 0, 0)]])
    def test_from_rows_rejects_other_cells(self, rows):
        with pytest.raises(PatternError, match="cell values"):
            Pattern.from_rows(rows)

    @pytest.mark.parametrize("rows", [["0101", "00", "000"],
                                      ["010", "000"], ["01", "00", "00"]])
    def test_from_rows_rejects_ragged_or_oblong_rows(self, rows):
        with pytest.raises(PatternError, match="rows of"):
            Pattern.from_rows(rows)

    def test_rejects_wrong_length(self):
        with pytest.raises(PatternError):
            Pattern(3, (0,) * 8)

    def test_wrap_indexing(self):
        p = parse("100\n000\n000")
        assert p[0, 0] == 1
        assert p[3, 3] == 1
        assert p[-3, -3] == 1
        assert p[1, 1] == 0


class TestWindowIndices:
    def test_matches_wrapped_offsets(self):
        for n in (3, 4, 7):
            idx = window_indices(n)
            for i in range(n):
                for j in range(n):
                    assert list(idx[i * n + j]) == [
                        ((i + di) % n) * n + (j + dj) % n
                        for di, dj in MOORE_OFFSETS]


class TestWindowCodes:
    def test_wrap_picks_up_far_corner_center_first(self):
        cells = [0] * 25
        cells[0] = 1  # (0, 0)
        codes = window_codes(cells, 5)
        assert codes[0] == 256  # the center is bit 8
        assert codes[4 * 5 + 4] == 128  # offset (1, 1) wraps to (0, 0)
        assert codes[1] == 8  # offset (0, -1) is outer cell 3
        assert (codes > 0).sum() == 9

    @given(patterns)
    def test_bits_follow_the_window_weights(self, p):
        codes = window_codes(p.cells, p.n)
        for i in range(p.n):
            for j in range(p.n):
                assert codes[i * p.n + j] == sum(
                    w * p.at(i + di, j + dj)
                    for (di, dj), w in zip(MOORE_OFFSETS, WINDOW_WEIGHTS))
        assert (window_codes(p.to_array(), p.n) == codes).all()


class TestBitboard:
    def test_bit_k_is_flat_cell_k(self):
        p = Pattern.zeros(5)
        cells = list(p.cells)
        cells[2 * 5 + 3] = 1
        assert pack(cells) == 1 << 13
        assert Pattern.from_board(5, 1 << 13) == Pattern(5, tuple(cells))

    @pytest.mark.parametrize("board", [(1 << 9) | 1, 1 << 9, -1])
    def test_from_board_rejects_bits_outside_the_grid(self, board):
        with pytest.raises(PatternError):
            Pattern.from_board(3, board)

    @given(patterns)
    def test_round_trip(self, p):
        board = pack(p.cells)
        assert Pattern.from_board(p.n, board) == p
        assert pack_rows(np.array([p.cells], dtype=np.uint8)) == [board]
        assert board.bit_count() == p.ones


class TestTransform:
    def test_rotate_four_times_is_identity(self, optimal5):
        p = optimal5
        for _ in range(4):
            p = transform(p, "rotate90")
        assert p == optimal5

    def test_shift_of_uniform_is_fixed(self):
        p = Pattern.zeros(4)
        assert transform(p, "shift", 1, 0) == p

    def test_shift_inverse(self, optimal7):
        q = transform(optimal7, "shift", 2, 5)
        assert transform(q, "shift", -2, -5) == optimal7

    def test_reflections_are_involutions(self, optimal5):
        for op in ("reflect_h", "reflect_v"):
            assert transform(transform(optimal5, op), op) == optimal5

    def test_unknown_op(self, optimal5):
        with pytest.raises(ValueError):
            transform(optimal5, "rotate45")

    @given(patterns)
    def test_ones_count_invariant(self, p):
        for op in SYMMETRY_OPS:
            assert transform(p, op).ones == p.ones

    @given(patterns)
    def test_symmetry_group_closed_orbit_divides_8(self, p):
        orbit = {transform(p, op).cells for op in SYMMETRY_OPS}
        assert 8 % len(orbit) == 0


class TestTextFormat:
    def test_parse_center_point(self):
        p = parse("000\n010\n000")
        assert p.n == 3 and p[1, 1] == 1 and p.ones == 1

    def test_round_trip(self, optimal7):
        assert parse(serialize(optimal7)) == optimal7

    def test_serialize_parse_preserves_text(self):
        text = "0101\n1010\n0000\n1111\n"
        assert serialize(parse(text)) == text

    def test_too_small_rejected(self):
        with pytest.raises(PatternError, match="3"):
            parse("00\n00")

    def test_ragged_line_names_line_number(self):
        with pytest.raises(PatternError, match="line 2"):
            parse("000\n01\n000")

    def test_illegal_character_names_line_number(self):
        with pytest.raises(PatternError, match="line 3"):
            parse("000\n010\n0x0")

    def test_non_square_rejected(self):
        with pytest.raises(PatternError):
            parse("000\n010\n000\n000")
