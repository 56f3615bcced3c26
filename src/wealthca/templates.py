"""3x3 matching templates: built-in rule sets, extraction, symmetry closure."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count

import numpy as np

from .grid import (MOORE_OFFSETS, WINDOW_WEIGHTS, Coord, Pattern, PatternError,
                   symmetry_images)

# The 52 canonical templates. T0-T7 suffice for even grid sizes (pure point
# patterns); T8-T35 add domino-induced neighborhoods; T36-T51 come from the
# 2x2 zero-block singularities of odd-size optima. The second label names the
# symmetry family (Template.family).
_BUILTIN = [
    ("T0", "A", "000 010 000"),
    ("T1", "B0", "000 101 000"),
    ("T2", "B1", "010 000 010"),
    ("T3", "C", "101 000 101"),
    ("T4", "D0", "101 000 010"),
    ("T5", "D1", "010 000 101"),
    ("T6", "D2", "001 100 001"),
    ("T7", "D3", "100 001 100"),
    ("T8", "E0", "000 110 000"),
    ("T9", "E1", "000 011 000"),
    ("T10", "E2", "010 010 000"),
    ("T11", "E3", "000 010 010"),
    ("T12", "F0", "110 000 110"),
    ("T13", "F1", "011 000 011"),
    ("T14", "F2", "101 101 000"),
    ("T15", "F3", "000 101 101"),
    ("T16", "G0", "110 000 010"),
    ("T17", "G1", "010 000 110"),
    ("T18", "G2", "011 000 010"),
    ("T19", "G3", "010 000 011"),
    ("T20", "G4", "001 101 000"),
    ("T21", "G5", "000 101 001"),
    ("T22", "G6", "100 101 000"),
    ("T23", "G7", "000 101 100"),
    ("T24", "H0", "110 000 101"),
    ("T25", "H1", "101 000 110"),
    ("T26", "H2", "011 000 101"),
    ("T27", "H3", "101 000 011"),
    ("T28", "H4", "101 001 100"),
    ("T29", "H5", "100 001 101"),
    ("T30", "H6", "101 100 001"),
    ("T31", "H7", "001 100 101"),
    ("T32", "I0", "110 000 011"),
    ("T33", "I1", "011 000 110"),
    ("T34", "I2", "001 101 100"),
    ("T35", "I3", "100 101 001"),
    ("T36", "J0", "110 000 100"),
    ("T37", "J1", "100 000 110"),
    ("T38", "J2", "011 000 001"),
    ("T39", "J3", "001 000 011"),
    ("T40", "J4", "101 001 000"),
    ("T41", "J5", "000 001 101"),
    ("T42", "J6", "101 100 000"),
    ("T43", "J7", "000 100 101"),
    ("T44", "K0", "010 000 001"),
    ("T45", "K1", "001 000 010"),
    ("T46", "K2", "010 000 100"),
    ("T47", "K3", "100 000 010"),
    ("T48", "K4", "000 001 100"),
    ("T49", "K5", "100 001 000"),
    ("T50", "K6", "000 100 001"),
    ("T51", "K7", "001 100 000"),
]
_FAMILY = {label: family for label, family, _ in _BUILTIN}

RULE_SIZES = (8, 36, 52)

# Row-major weights of the 3x3 cells in a window code (grid.window_codes).
_ROW_WEIGHTS = tuple(w for _, w in sorted(zip(MOORE_OFFSETS, WINDOW_WEIGHTS)))


@dataclass(frozen=True)
class Template:
    """A 3x3 binary stencil: its 9-bit window code and a label.

    code has the layout of grid.window_codes: outer cell k (row-major,
    center skipped) is bit k and the center is bit 8.
    """

    code: int
    label: str = ""

    def __post_init__(self):
        if not 0 <= self.code < 512:
            raise PatternError(f"template code must be in 0..511, "
                               f"got {self.code}")

    @classmethod
    def from_rows(cls, rows, label: str = "") -> "Template":
        """The template with the given three rows of 0/1 cells.

        A shape other than 3x3 raises PatternError, and so do cells that
        Pattern.from_rows refuses. The code is the center window's code.
        """
        rows = [list(r) for r in rows]
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            shown = ["".join(map(str, r)) for r in rows]
            raise PatternError(f"template must be 3x3, got {shown}")
        return cls(int(Pattern.from_rows(rows).codes[1, 1]), label)

    @property
    def values(self) -> tuple[tuple[int, int, int], ...]:
        """The 3x3 cells, row by row."""
        cells = [int(self.code & w != 0) for w in _ROW_WEIGHTS]
        return tuple(tuple(cells[k:k + 3]) for k in (0, 3, 6))

    @property
    def center(self) -> int:
        return self.code >> 8

    @property
    def family(self) -> str:
        """The symmetry family of a built-in template's code, else ''."""
        t = _builtin().get(self.code)
        return _FAMILY[t.label] if t else ""

    def outer_code(self) -> int:
        """Outer cells packed into 8 bits, first outer cell = bit 0."""
        return self.code & 255


@dataclass(frozen=True)
class TemplateSet:
    """An ordered, duplicate-free collection of templates.

    The hash, of the template codes, is computed once: sets key the CA's
    rule-table caches, and equal sets have equal codes.
    """

    templates: tuple[Template, ...]

    def __post_init__(self):
        seen = set()
        for t in self.templates:
            if t.code in seen:
                raise PatternError(f"duplicate template {t.label or t.values}")
            seen.add(t.code)
        object.__setattr__(self, "_hash",
                           hash(tuple(t.code for t in self.templates)))

    def __hash__(self):
        return self._hash

    def __iter__(self):
        return iter(self.templates)

    def __len__(self):
        return len(self.templates)

    def __contains__(self, t: Template) -> bool:
        return any(t.code == u.code for u in self.templates)

    def values_set(self) -> frozenset:
        return frozenset(t.values for t in self.templates)

    def labels(self) -> list[str]:
        return [t.label for t in self.templates]


@lru_cache(maxsize=None)
def _builtin() -> dict:
    """The built-in templates in label order, keyed by their codes."""
    ts = (Template.from_rows(rows.split(), label)
          for label, _, rows in _BUILTIN)
    return {t.code: t for t in ts}


def builtin_set(variant: int) -> TemplateSet:
    """The canonical template set for rule 8, 36 or 52."""
    if variant not in RULE_SIZES:
        raise ValueError(f"rule variant must be one of {RULE_SIZES}, "
                         f"got {variant}")
    return TemplateSet(tuple(_builtin().values())[:variant])


@lru_cache(maxsize=None)
def _symmetry_codes() -> tuple[tuple[int, ...], ...]:
    """Per window code: the codes of its eight grid.symmetry_images."""
    codes = np.arange(512)[:, None]
    cells = (codes & _ROW_WEIGHTS) != 0  # (512, 9), row-major
    # each image, applied to the cell positions, is a permutation of them
    perms = [img.reshape(-1)
             for img in symmetry_images(np.arange(9).reshape(3, 3))]
    return tuple(map(tuple, (cells[:, perms] @ _ROW_WEIGHTS).tolist()))


def complete_under_symmetry(ts: TemplateSet) -> TemplateSet:
    """Close a set under the eight symmetries, keeping the original order.

    Images are appended in closure order. A built-in image takes its
    built-in label unless a template of ts already carries that label;
    every other image takes the next X0, X1, ... not yet in use.
    """
    out = {t.code: t for t in ts}
    used = set(ts.labels())
    fresh = (f"X{k}" for k in count() if f"X{k}" not in used)
    for t in ts:
        for code in _symmetry_codes()[t.code]:
            if code not in out:
                known = _builtin().get(code)
                out[code] = (known if known and known.label not in used
                             else Template(code, next(fresh)))
    return TemplateSet(tuple(out.values()))


def symmetry_orbit(t: Template) -> TemplateSet:
    """All distinct rotation/reflection images of t, starting with t."""
    return complete_under_symmetry(TemplateSet((t,)))


def extract_templates(p: Pattern, complete: bool = True) -> TemplateSet:
    """Collect all distinct 3x3 windows of p; optionally close under symmetry.

    Windows glide over every cell of the torus; templates come in the
    row-major order of each window's first occurrence, followed by their
    new symmetry images if complete. Extracted templates reuse the canonical
    labels where they coincide with built-in templates, the others are
    labelled X0, X1, ... in that order.
    """
    codes, first = np.unique(p.codes, return_index=True)
    fresh = (f"X{k}" for k in count())
    ts = TemplateSet(tuple(_builtin().get(code) or Template(code, next(fresh))
                           for code in codes[np.argsort(first)].tolist()))
    return complete_under_symmetry(ts) if complete else ts


def match_except_center(p: Pattern, c: Coord, t: Template) -> bool:
    """True iff the eight outer window cells at c equal t's outer cells."""
    n = p.n
    v = t.values
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if (di, dj) == (0, 0):
                continue
            if p.cells[((c.i + di) % n) * n + (c.j + dj) % n] != v[di + 1][dj + 1]:
                return False
    return True


def match_full(p: Pattern, c: Coord, t: Template) -> bool:
    """Outer match plus center equality."""
    return p.at(c.i, c.j) == t.center and match_except_center(p, c, t)


def serialize_templates(ts: TemplateSet) -> str:
    blocks = []
    for t in ts:
        lines = []
        if t.label:
            lines.append(f"# {t.label}")
        lines.extend("".join(str(v) for v in row) for row in t.values)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def parse_templates(text: str) -> TemplateSet:
    """Parse 3-line blocks, each with an optional '# label' line before it."""
    out, rows, label = [], [], ""
    for line in [*map(str.strip, text.splitlines()), ""]:
        if rows and (not line or line.startswith("#")):
            # a blank line, a label line or the end closes the block
            out.append(Template.from_rows(rows, label))
            rows, label = [], ""
        if line.startswith("#"):
            label = line.lstrip("#").strip()
        elif line:
            rows.append(line)
    return TemplateSet(tuple(out))
