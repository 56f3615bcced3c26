import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wealthca.analysis import construct_optimal_odd
from wealthca.grid import Coord, Pattern, PatternError, symmetry_images
from wealthca.templates import (RULE_SIZES, Template, TemplateSet,
                                _symmetry_codes, builtin_set,
                                complete_under_symmetry, extract_templates,
                                match_except_center, match_full,
                                parse_templates, serialize_templates,
                                symmetry_orbit)


class TestBuiltinSets:
    def test_sizes(self):
        for size in RULE_SIZES:
            assert len(builtin_set(size)) == size

    def test_prefix_nesting(self):
        small, mid, full = (builtin_set(s) for s in RULE_SIZES)
        assert small.values_set() <= mid.values_set() <= full.values_set()
        assert [t.label for t in small] == [f"T{i}" for i in range(8)]

    def test_first_template_is_lone_defector(self):
        t0 = builtin_set(8).templates[0]
        assert t0.values == ((0, 0, 0), (0, 1, 0), (0, 0, 0))
        assert t0.center == 1 and t0.outer_code() == 0

    def test_last_template(self):
        t51 = builtin_set(52).templates[51]
        assert t51.values == ((0, 0, 1), (1, 0, 0), (0, 0, 0))

    def test_centers_one_only_for_point_and_domino_anchors(self):
        ones = [t.label for t in builtin_set(52) if t.center == 1]
        assert ones == ["T0", "T8", "T9", "T10", "T11"]

    def test_outer_codes_unique(self):
        codes = [t.outer_code() for t in builtin_set(52)]
        assert len(set(codes)) == 52

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            builtin_set(16)

    def test_whole_table_is_pinned(self):
        # SHA-256 of every row (label and cells) and of every family name,
        # as the 52 templates were first written out row by row
        def sha(text):
            return hashlib.sha256(text.encode()).hexdigest()
        full = builtin_set(52)
        assert sha(serialize_templates(full)) == (
            "f405102d683733b540d3110099698453e34e6e0e4808f8c80bcc51dc6c185e3d")
        assert sha(" ".join(t.family for t in full)) == (
            "833ac2382fcdf692cb3d4ee4b28a1e1769880dac02cc511a4fc2fa8819057a87")


class TestTemplate:
    def test_rejects_non_3x3(self):
        with pytest.raises(PatternError):
            Template.from_rows(((0, 1), (1, 0)))

    def test_rejects_bad_values(self):
        for middle in ((0, 2, 0), "0x0", "0 0", "0.5"):
            with pytest.raises(PatternError):
                Template.from_rows(((0, 0, 0), middle, (0, 0, 0)))

    @pytest.mark.parametrize("middle", [
        (0, 2, 0), (0, -1, 0), (0, 0.5, 0), (0, 1.0, 0), (0, "x", 0), "0x0",
        (0, None, 0)])
    def test_refuses_the_cells_pattern_refuses(self, middle):
        rows = ((0, 0, 0), middle, (0, 0, 0))
        with pytest.raises(PatternError):
            Template.from_rows(rows)
        with pytest.raises(PatternError):
            Pattern.from_rows(rows)

    def test_family_follows_the_code(self):
        families = [t.family for t in builtin_set(52)]
        assert families[:3] == ["A", "B0", "B1"] and families[-1] == "K7"
        t8 = builtin_set(52).templates[8]
        assert Template(t8.code).family == "E0"
        assert Template(t8.code, "X0").family == "E0"
        builtin = {t.code for t in builtin_set(52)}
        assert all(Template(code).family == ""
                   for code in range(512) if code not in builtin)

    def test_outer_code_bit_order(self):
        # bit k corresponds to the k-th outer cell in row-major order
        t = Template.from_rows(("100", "000", "000"))
        assert t.outer_code() == 1
        t = Template.from_rows(("000", "000", "001"))
        assert t.outer_code() == 128

    def test_code_round_trip(self):
        for code in range(512):
            t = Template(code)
            assert Template.from_rows(t.values) == t
            assert t.outer_code() == code & 255
            assert t.center == code >> 8

    def test_code_is_the_window_code_at_the_center(self):
        for t in builtin_set(52):
            cells = [0] * 25
            for r in range(3):
                for c in range(3):
                    cells[(1 + r) * 5 + 1 + c] = t.values[r][c]
            assert Pattern(5, tuple(cells)).codes[2, 2] == t.code

    def test_rejects_code_out_of_range(self):
        for code in (-1, 512):
            with pytest.raises(PatternError):
                Template(code)

    def test_set_rejects_duplicates(self):
        t = builtin_set(8).templates[0]
        with pytest.raises(PatternError):
            TemplateSet((t, Template(t.code, label="copy")))

    def test_equal_sets_hash_equal(self, optimal7):
        a = extract_templates(optimal7)
        b = TemplateSet(tuple(Template(t.code, t.label) for t in a))
        assert a == b and hash(a) == hash(b)
        assert hash(builtin_set(52)) == hash(builtin_set(52))
        # labels still count in equality, though not in the hash
        assert TemplateSet(tuple(Template(t.code) for t in a)) != a


# input labels that can collide with those completion hands out
_LABELS = ["", *builtin_set(52).labels(), *(f"X{k}" for k in range(8))]
_CODES = st.one_of(st.sampled_from([t.code for t in builtin_set(52)]),
                   st.integers(0, 511))


class TestSymmetry:
    def test_point_orbit_is_singleton(self):
        t0 = builtin_set(8).templates[0]
        assert len(symmetry_orbit(t0)) == 1

    def test_row_pair_rotates_to_column_pair(self):
        ts = builtin_set(8)
        t1, t2 = ts.templates[1], ts.templates[2]
        orbit = symmetry_orbit(t1)
        assert len(orbit) == 2
        assert t2 in orbit

    def test_four_member_family(self):
        ts = builtin_set(8)
        orbit = symmetry_orbit(ts.templates[4])
        assert len(orbit) == 4
        assert orbit.values_set() == frozenset(
            ts.templates[i].values for i in (4, 5, 6, 7))

    def test_code_table_is_the_grid_images(self):
        for code in range(512):
            images = symmetry_images(np.array(Template(code).values))
            assert _symmetry_codes()[code] == tuple(
                int(Pattern.from_array(img).codes[1, 1]) for img in images)

    def test_orbit_starts_with_the_template(self):
        x = Template.from_rows(("110", "010", "000"), "X0")
        orbit = symmetry_orbit(x)
        assert orbit.templates[0] == x
        assert len(orbit) == 8 and len(set(orbit.labels())) == 8

    def test_builtin_sets_are_symmetry_closed(self):
        for size in RULE_SIZES:
            ts = builtin_set(size)
            closed = complete_under_symmetry(ts)
            assert closed.values_set() == ts.values_set()
            assert len(closed) == size

    @given(st.lists(st.tuples(_CODES, st.sampled_from(_LABELS)),
                    max_size=12, unique_by=(lambda t: t[0], lambda t: t[1])))
    def test_completed_labels_are_unique_and_round_trip(self, pairs):
        ts = complete_under_symmetry(
            TemplateSet(tuple(Template(c, lab) for c, lab in pairs)))
        labels = [lab for lab in ts.labels() if lab]
        assert len(set(labels)) == len(labels)
        assert parse_templates(serialize_templates(ts)) == ts

    def test_completion_keeps_original_order(self):
        t = Template.from_rows(("000", "110", "000"), "seed")
        closed = complete_under_symmetry(TemplateSet((t,)))
        assert closed.templates[0].code == t.code
        assert len(closed) == 4  # the four domino-anchor orientations


class TestExtraction:
    def test_point_lattice_yields_even_rule_subset(self, lattice6):
        ts = extract_templates(lattice6)
        assert ts.values_set() == frozenset(
            t.values for t in builtin_set(8).templates[:4])

    def test_all_zero_pattern_yields_one_template(self):
        ts = extract_templates(Pattern.zeros(5))
        assert len(ts) == 1
        assert ts.templates[0].values == ((0, 0, 0),) * 3

    def test_odd_optimum_extracts_within_full_rule(self, optimal7):
        ts = extract_templates(optimal7)
        assert ts.values_set() <= builtin_set(52).values_set()
        assert any(lab.startswith("T") for lab in ts.labels())

    def test_no_complete_can_be_smaller(self, optimal7):
        raw = extract_templates(optimal7, complete=False)
        closed = extract_templates(optimal7, complete=True)
        assert raw.values_set() <= closed.values_set()
        assert closed.values_set() == complete_under_symmetry(raw).values_set()

    def test_every_template_has_a_unique_label(self):
        # completion adds symmetry images of non-built-in windows; they
        # continue the X numbering of the windows themselves
        rng = random.Random(0)
        p = Pattern(6, tuple(rng.randint(0, 1) for _ in range(36)))
        raw = extract_templates(p, complete=False)
        ts = extract_templates(p)
        labels = ts.labels()
        assert len(ts) == 164 and "" not in labels
        assert len(set(labels)) == len(labels)
        assert ts.templates[:len(raw)] == raw.templates

    def test_unknown_windows_get_fresh_labels(self):
        p = Pattern(3, (1, 1, 1, 1, 0, 1, 1, 1, 1))
        ts = extract_templates(p, complete=False)
        assert any(lab.startswith("X") for lab in ts.labels())


class TestMatching:
    def test_exhaustive_against_window_equality(self):
        # embed all 512 possible 3x3 windows at the center of a zero pattern
        # and check both predicates against direct comparison
        templates = builtin_set(52).templates
        center = Coord(2, 2)
        for bits in itertools.product((0, 1), repeat=9):
            cells = [0] * 25
            k = 0
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    cells[(2 + di) * 5 + (2 + dj)] = bits[k]
                    k += 1
            p = Pattern(5, tuple(cells))
            window = tuple(tuple(bits[3 * r + c] for c in range(3))
                           for r in range(3))
            outer_and_center = [
                (t.outer_code() == Template.from_rows(window).outer_code(),
                 t.values == window) for t in templates]
            for t, (outer_eq, full_eq) in zip(templates, outer_and_center):
                assert match_except_center(p, center, t) == outer_eq
                assert match_full(p, center, t) == full_eq

    def test_matching_wraps_around(self, lattice6):
        t0 = builtin_set(8).templates[0]
        assert match_full(lattice6, Coord(0, 0), t0)
        assert not match_full(lattice6, Coord(1, 1), t0)


class TestTemplateText:
    def test_round_trip_with_labels(self):
        ts = builtin_set(36)
        back = parse_templates(serialize_templates(ts))
        assert back.values_set() == ts.values_set()
        assert back.labels() == ts.labels()

    def test_round_trip_is_exact(self):
        for ts in (builtin_set(52),
                   extract_templates(construct_optimal_odd(9))):
            assert parse_templates(serialize_templates(ts)) == ts

    def test_parse_without_labels(self):
        ts = parse_templates("010\n000\n000\n\n000\n000\n010\n")
        assert len(ts) == 2
        assert ts.labels() == ["", ""]

    @pytest.mark.parametrize("text", [
        "# A\n000\n010\n000\n# B\n\n000\n011\n000\n",
        "# A\n000\n010\n000\n# B\n000\n011\n000\n",
    ], ids=["label-then-blank", "label-only"])
    def test_label_line_closes_the_open_block(self, text):
        assert parse_templates(text).labels() == ["A", "B"]

    @pytest.mark.parametrize("text, label", [
        ("# A\n000\n010\n000\n# B\n", "B"),
        ("# A\n# B\n000\n010\n000\n", "A"),
    ], ids=["label-at-end", "label-before-label"])
    def test_label_line_without_a_block(self, text, label):
        with pytest.raises(PatternError, match=f"'{label}' has no template"):
            parse_templates(text)

    def test_bad_block_shape(self):
        with pytest.raises(PatternError):
            parse_templates("010\n000\n")

    def test_illegal_character(self):
        for middle in ("0x0", "0 0", "0.5"):
            with pytest.raises(PatternError):
                parse_templates(f"010\n{middle}\n000\n")
