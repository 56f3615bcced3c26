import dataclasses
import pickle
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import numpy as np

from wealthca.grid import (MAX_CELLS, MOORE_OFFSETS, Pattern, PatternError,
                           SYMMETRY_OPS, WINDOW_WEIGHTS, check_size, pack,
                           pack_rows, pack_words, parse, serialize, transform,
                           window_indices)

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

    @pytest.mark.parametrize("cells", [(1.0,) + (0,) * 8, (0.5,) + (0,) * 8,
                                       ("1",) + (0,) * 8, (256,) + (0,) * 8,
                                       (-1,) + (0,) * 8, "100000000"])
    def test_rejects_cells_that_are_not_ints_0_or_1(self, cells):
        with pytest.raises(PatternError, match="cell values"):
            Pattern(3, cells)

    def test_stores_cells_as_a_tuple_of_ints(self):
        p = Pattern(3, [True] + [False] * 8)
        assert p.cells == (1,) + (0,) * 8
        assert all(type(v) is int for v in p.cells)
        assert p.rows() == ["100", "000", "000"]
        assert serialize(p) == "100\n000\n000\n"
        assert hash(Pattern(3, [0] * 9)) == hash(Pattern.zeros(3))
        assert Pattern(3, np.ones(9, dtype=np.int64)).cells == (1,) * 9

    def test_from_array_reads_ints_and_bools(self):
        arr = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
        want = Pattern(3, (0, 1, 0, 0, 0, 0, 0, 0, 1))
        assert Pattern.from_array(arr) == want
        assert Pattern.from_array(arr.astype(bool)) == want
        assert Pattern.from_array(arr.astype(np.uint8)) == want

    @pytest.mark.parametrize("arr", [
        np.full((3, 3), 0.9), np.full((3, 3), 1.7), np.full((3, 3), 2),
        np.zeros((3, 3, 1)), np.zeros((3, 3, 1), dtype=int),
        np.zeros(9, dtype=int), np.zeros((3, 4), dtype=int)])
    def test_from_array_rejects_other_input(self, arr):
        with pytest.raises(PatternError):
            Pattern.from_array(arr)

    @pytest.mark.parametrize("value", [2, 255])
    def test_from_array_refuses_other_bytes(self, value):
        # a uint8 array passes its bytes; __post_init__ checks each one
        arr = np.zeros((3, 3), dtype=np.uint8)
        arr[1, 2] = value
        with pytest.raises(PatternError, match="cell values"):
            Pattern.from_array(arr)

    def test_from_array_does_not_wrap_wide_ints(self):
        arr = np.zeros((3, 3), dtype=np.int64)
        arr[0, 0] = 256  # the byte 0 if it were cast to uint8
        with pytest.raises(PatternError, match="cell values"):
            Pattern.from_array(arr)

    LAYOUTS = {
        "bool": lambda a: a.astype(bool),
        "fortran": np.asfortranarray,
        "rot90": np.rot90,
        "antitranspose": lambda a: a[::-1, ::-1].T,
        "roll": lambda a: np.roll(a, (2, -1), axis=(0, 1)),
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_from_array_reads_any_layout_row_major(self, layout):
        rng = np.random.default_rng(3)
        arr = self.LAYOUTS[layout](
            rng.integers(0, 2, size=(5, 5), dtype=np.uint8))
        want = Pattern(5, tuple(int(arr[i, j])
                                for i in range(5) for j in range(5)))
        assert Pattern.from_array(arr) == want

    def test_size_cap(self):
        side = int(MAX_CELLS ** 0.5)
        check_size(side)
        for n in (side + 1, 30001):  # refused before anything is allocated
            with pytest.raises(PatternError, match="exceeds"):
                check_size(n)
            with pytest.raises(PatternError, match="exceeds"):
                Pattern.from_board(n, 0)

    def test_to_array_is_a_fresh_writable_copy(self):
        p = Pattern(3, (0, 1, 0, 0, 0, 0, 0, 0, 1))
        arr = p.to_array()
        assert arr.dtype == np.uint8 and arr.shape == (3, 3)
        arr[0, 0] = 1
        assert p.cells[0] == 0 and p.to_array()[0, 0] == 0

    def test_wrap_indexing(self):
        p = parse("100\n000\n000")
        assert p[0, 0] == 1
        assert p[3, 3] == 1
        assert p[-3, -3] == 1
        assert p[1, 1] == 0


CELLS = (0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0)  # a 4x4 pattern


class TestConversion:
    # each way into a Pattern converts the cells once; every view must read
    # the same cells as the tuple
    BUILDS = {
        "tuple": lambda: Pattern(4, CELLS),
        "list": lambda: Pattern(4, list(CELLS)),
        "bytes": lambda: Pattern(4, bytes(CELLS)),
        "bools": lambda: Pattern(4, [bool(v) for v in CELLS]),
        "int64 array": lambda: Pattern(4, np.array(CELLS, dtype=np.int64)),
        "from_rows": lambda: Pattern.from_rows(
            ["".join(map(str, CELLS[k:k + 4])) for k in range(0, 16, 4)]),
        "from_array": lambda: Pattern.from_array(
            np.array(CELLS).reshape(4, 4)),
        "from_board": lambda: Pattern.from_board(
            4, sum(v << k for k, v in enumerate(CELLS))),
    }

    @pytest.mark.parametrize("build", BUILDS)
    def test_views_agree_with_the_tuple(self, build):
        p = self.BUILDS[build]()
        assert p.cells == CELLS and all(type(v) is int for v in p.cells)
        for _ in range(2):  # a fresh, writable copy on every call
            arr = p.to_array()
            assert arr.dtype == np.uint8 and arr.shape == (4, 4)
            assert arr.flags.writeable and arr.ravel().tolist() == list(CELLS)
            arr[:] = 1 - arr
        want = np.array(CELLS)[window_indices(4)] @ WINDOW_WEIGHTS
        assert p.codes.dtype == np.int64 and p.codes.shape == (4, 4)
        assert p.codes.ravel().tolist() == want.tolist()
        assert not p.codes.flags.writeable
        assert p.ones == sum(CELLS) == 7
        assert pack(p) == sum(v << k for k, v in enumerate(CELLS))
        assert p.rows() == ["0110", "0100", "0111", "0100"]
        back = pickle.loads(pickle.dumps(p))
        assert back == p and back.cells == CELLS
        assert back.to_array().tolist() == p.to_array().tolist()
        assert back.codes.tolist() == p.codes.tolist()
        assert not back.codes.flags.writeable

    def test_a_bare_int_is_not_nine_zero_cells(self):
        # bytes(9) would be nine zero bytes
        with pytest.raises(PatternError, match="cell values"):
            Pattern(3, 9)

    def test_kept_bytes_are_not_part_of_equality_hash_or_repr(self):
        viewed, fresh = Pattern(4, bytes(CELLS)), Pattern(4, list(CELLS))
        viewed.to_array(), viewed.codes, viewed.ones
        assert viewed == fresh and hash(viewed) == hash(fresh)
        assert repr(viewed) == repr(fresh) == f"Pattern(n=4, cells={CELLS})"
        assert [f.name for f in dataclasses.fields(Pattern)] == ["n", "cells"]


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
        codes = Pattern(5, tuple(cells)).codes
        assert codes[0, 0] == 256  # the center is bit 8
        assert codes[4, 4] == 128  # offset (1, 1) wraps to (0, 0)
        assert codes[0, 1] == 8  # offset (0, -1) is outer cell 3
        assert (codes > 0).sum() == 9

    @given(patterns)
    def test_bits_follow_the_window_weights(self, p):
        codes = p.codes
        for i in range(p.n):
            for j in range(p.n):
                assert codes[i, j] == sum(
                    w * p.at(i + di, j + dj)
                    for (di, dj), w in zip(MOORE_OFFSETS, WINDOW_WEIGHTS))
        assert (Pattern.from_array(p.to_array()).codes == codes).all()

    def test_matches_the_index_table_form(self):
        rng = np.random.default_rng(5)
        for n in range(3, 13):
            for density in (0.0, 0.3, 0.5, 1.0):
                bits = (rng.random((n, n)) < density).astype(np.uint8)
                want = bits.reshape(-1)[window_indices(n)] @ WINDOW_WEIGHTS
                for p in (Pattern(n, tuple(bits.reshape(-1).tolist())),
                          Pattern(n, bits.reshape(-1).tolist()),
                          Pattern.from_array(bits),
                          Pattern.from_array(bits.astype(bool)),
                          Pattern.from_array(bits.astype(np.int64))):
                    got = p.codes
                    assert got.dtype == want.dtype == np.int64
                    assert got.shape == (n, n)
                    assert not got.flags.writeable
                    assert (got.reshape(-1) == want).all(), (n, density)

    @pytest.mark.parametrize("cells, n, got", [
        ([1] * 10, 3, 10),  # long flat input: no silent prefix
        ([0] * 8, 3, 8),
        (np.ones((4, 4), dtype=np.uint8), 3, 16),
        (np.ones((3, 4), dtype=np.uint8), 3, 12),  # not square
    ])
    def test_rejects_a_wrong_cell_count(self, cells, n, got):
        with pytest.raises(PatternError,
                           match=f"expected {n * n} cells, got {got}"):
            Pattern(n, np.ravel(cells).tolist())

    def test_keeps_no_memory_per_size(self):
        # an index table cached per size would hold 72 bytes per cell, about
        # 12 MB over these 48 sizes
        rng = np.random.default_rng(2)
        cells = {n: tuple(rng.integers(0, 2, n * n).tolist())
                 for n in range(5, 100, 2)}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n, c in cells.items():
                assert Pattern(n, c).codes.shape == (n, n)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1 << 20, grown


class TestPatternCodes:
    @given(patterns)
    def test_is_the_window_code_grid(self, p):
        bits = np.array(p.cells, dtype=np.uint8)
        want = bits[window_indices(p.n)] @ WINDOW_WEIGHTS
        assert p.codes.dtype == np.int64
        assert (p.codes == want.reshape(p.n, p.n)).all()
        assert p.codes is p.codes  # computed once

    def test_read_only(self, optimal7):
        with pytest.raises(ValueError):
            optimal7.codes[0, 0] = 0

    def test_not_part_of_equality_hash_or_repr(self):
        read, fresh = Pattern.zeros(4), Pattern.zeros(4)
        read.codes
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)

    def test_pickle_round_trips_after_codes_were_read(self, optimal7):
        optimal7.codes
        back = pickle.loads(pickle.dumps(optimal7))
        assert back == optimal7
        assert (back.codes == optimal7.codes).all()
        assert not back.codes.flags.writeable


class TestBitboard:
    def test_bit_k_is_flat_cell_k(self):
        p = Pattern.zeros(5)
        cells = list(p.cells)
        cells[2 * 5 + 3] = 1
        assert pack(Pattern(5, tuple(cells))) == 1 << 13
        assert Pattern.from_board(5, 1 << 13) == Pattern(5, tuple(cells))

    @pytest.mark.parametrize("board", [(1 << 9) | 1, 1 << 9, -1])
    def test_from_board_rejects_bits_outside_the_grid(self, board):
        with pytest.raises(PatternError):
            Pattern.from_board(3, board)

    @given(patterns)
    def test_round_trip(self, p):
        board = pack(p)
        assert Pattern.from_board(p.n, board) == p
        assert pack_rows(np.array([p.cells], dtype=np.uint8)) == [board]
        assert board.bit_count() == p.ones

    @pytest.mark.parametrize("width", [1, 9, 63, 64, 65])
    def test_pack_words_up_to_the_word_size(self, width):
        # uint64 words hold up to 64 columns; pack_rows takes any width
        rows = np.random.default_rng(width).integers(0, 2, size=(50, width))
        rows[0], rows[1] = 0, 1
        expected = [sum(int(v) << k for k, v in enumerate(row))
                    for row in rows]
        for data in (rows, rows.astype(np.uint8), rows.astype(bool)):
            assert pack_rows(data) == expected
            if width <= 64:
                words = pack_words(data)
                assert words.dtype == np.uint64
                assert words.tolist() == expected
            else:
                with pytest.raises(ValueError):
                    pack_words(data)


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

    def test_blank_lines_at_both_ends_skipped(self):
        p = parse("\n010\n101\n010\n\n")
        assert p.rows() == ["010", "101", "010"]
        with pytest.raises(PatternError, match="line 3"):
            parse("\n\n01\n010\n010\n")  # counted from the first line

    def test_non_square_rejected(self):
        with pytest.raises(PatternError):
            parse("000\n010\n000\n000")
