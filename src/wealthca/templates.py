"""3x3 matching templates: built-in rule sets, extraction, symmetry closure."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (MOORE_OFFSETS, WINDOW_WEIGHTS, Coord, Pattern, PatternError,
                   symmetry_images, window_codes)

# The 52 canonical templates. T0-T7 suffice for even grid sizes (pure point
# patterns); T8-T35 add domino-induced neighborhoods; T36-T51 come from the
# 2x2 zero-block singularities of odd-size optima. The second label names the
# symmetry family.
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

RULE_SIZES = (8, 36, 52)


@dataclass(frozen=True)
class Template:
    """A 3x3 binary stencil with an identifying label."""

    values: tuple[tuple[int, int, int], ...]
    label: str = ""
    family: str = ""

    def __post_init__(self):
        if len(self.values) != 3 or any(len(r) != 3 for r in self.values):
            raise PatternError("template must be 3x3")
        if any(v not in (0, 1) for r in self.values for v in r):
            raise PatternError("template values must be 0 or 1")

    @classmethod
    def from_rows(cls, rows, label: str = "", family: str = "") -> "Template":
        return cls(tuple(tuple(int(v) for v in r) for r in rows), label, family)

    @classmethod
    def from_code(cls, code: int) -> "Template":
        """The template whose window code (see grid.window_codes) is code."""
        rows = [[0] * 3 for _ in range(3)]
        for (di, dj), weight in zip(MOORE_OFFSETS, WINDOW_WEIGHTS):
            rows[di + 1][dj + 1] = int(code & weight != 0)
        return cls.from_rows(rows)

    @property
    def center(self) -> int:
        return self.values[1][1]

    def outer(self) -> tuple[int, ...]:
        """The eight outer cells, row-major; outer cell k is bit k of code."""
        v = self.values
        return (v[0][0], v[0][1], v[0][2], v[1][0], v[1][2],
                v[2][0], v[2][1], v[2][2])

    @property
    def code(self) -> int:
        """9-bit window code in the layout of grid.window_codes."""
        return sum(weight for (di, dj), weight in zip(MOORE_OFFSETS,
                                                       WINDOW_WEIGHTS)
                   if self.values[di + 1][dj + 1])

    def outer_code(self) -> int:
        """Outer cells packed into 8 bits, first outer cell = bit 0."""
        return self.code & 255

    def to_array(self) -> np.ndarray:
        return np.array(self.values, dtype=np.uint8)

    def same_cells(self, other: "Template") -> bool:
        return self.values == other.values


@dataclass(frozen=True)
class TemplateSet:
    """An ordered, duplicate-free collection of templates."""

    templates: tuple[Template, ...]

    def __post_init__(self):
        seen = set()
        for t in self.templates:
            if t.values in seen:
                raise PatternError(f"duplicate template {t.label or t.values}")
            seen.add(t.values)

    def __iter__(self):
        return iter(self.templates)

    def __len__(self):
        return len(self.templates)

    def __contains__(self, t: Template) -> bool:
        return any(t.values == u.values for u in self.templates)

    def values_set(self) -> frozenset:
        return frozenset(t.values for t in self.templates)

    def labels(self) -> list[str]:
        return [t.label for t in self.templates]


@lru_cache(maxsize=None)
def _builtin() -> dict:
    """The built-in templates in label order, keyed by their cell values."""
    out = {}
    for label, family, rows in _BUILTIN:
        t = Template.from_rows(rows.split(), label, family)
        out[t.values] = t
    return out


def builtin_set(variant: int) -> TemplateSet:
    """The canonical template set for rule 8, 36 or 52."""
    if variant not in RULE_SIZES:
        raise ValueError(f"rule variant must be one of {RULE_SIZES}, "
                         f"got {variant}")
    return TemplateSet(tuple(_builtin().values())[:variant])


def symmetry_orbit(t: Template) -> TemplateSet:
    """All distinct rotation/reflection images of t, identity included."""
    seen = {}
    for img in symmetry_images(t.to_array()):
        values = tuple(tuple(int(v) for v in row) for row in img)
        if values not in seen:
            seen[values] = _builtin().get(values) or Template(values)
    return TemplateSet(tuple(seen.values()))


def complete_under_symmetry(ts: TemplateSet) -> TemplateSet:
    """Close a set under the eight symmetries, keeping the original order."""
    out = list(ts.templates)
    have = {t.values for t in out}
    for t in ts.templates:
        for img in symmetry_orbit(t):
            if img.values not in have:
                have.add(img.values)
                out.append(img)
    return TemplateSet(tuple(out))


def extract_templates(p: Pattern, complete: bool = True) -> TemplateSet:
    """Collect all distinct 3x3 windows of p; optionally close under symmetry.

    Windows glide over every cell of the torus; templates come in the
    row-major order of each window's first occurrence. Extracted templates
    reuse the canonical labels where they coincide with built-in templates,
    the others are labelled X0, X1, ... in that order.
    """
    codes, first = np.unique(window_codes(p.cells, p.n), return_index=True)
    out = []
    fresh = 0
    for code in codes[np.argsort(first)].tolist():
        values = Template.from_code(code).values
        t = _builtin().get(values)
        if t is None:
            t = Template(values, f"X{fresh}")
            fresh += 1
        out.append(t)
    ts = TemplateSet(tuple(out))
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
    """Parse blank-line separated 3-line blocks, optional '# label' lines."""
    out = []
    block: list[str] = []
    label = ""

    def flush():
        nonlocal block, label
        if not block:
            return
        if len(block) != 3 or any(len(l) != 3 for l in block):
            raise PatternError(f"template block must be 3x3: {block}")
        out.append(Template.from_rows(block, label))
        block, label = [], ""

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            flush()
        elif line.startswith("#"):
            label = line.lstrip("#").strip()
        else:
            if any(ch not in "01" for ch in line):
                raise PatternError(f"illegal template line {line!r}")
            block.append(line)
    flush()
    return TemplateSet(tuple(out))
