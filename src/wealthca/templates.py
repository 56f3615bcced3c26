"""3x3 matching templates: built-in rule sets, extraction, symmetry closure."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count

import numpy as np

from .grid import (MOORE_OFFSETS, SYMMETRY_OPS, WINDOW_WEIGHTS, Coord, Pattern,
                   PatternError, symmetry_images)

# The 52 canonical templates, as 11 symmetry families by their first
# template. A-D (T0-T7) suffice for even grid sizes (pure point patterns);
# E-I (T8-T35) add domino-induced neighborhoods; J-K (T36-T51) come from the
# 2x2 zero-block singularities of odd-size optima.
_FAMILIES = (
    ("A", "000 010 000"),
    ("B", "000 101 000"),
    ("C", "101 000 101"),
    ("D", "101 000 010"),
    ("E", "000 110 000"),
    ("F", "110 000 110"),
    ("G", "110 000 010"),
    ("H", "110 000 101"),
    ("I", "110 000 011"),
    ("J", "110 000 100"),
    ("K", "010 000 001"),
)
# A family is the distinct images of its first template in this order: the
# template, then its rotate90 image, each under identity, reflect_h,
# reflect_v and rotate180. T0..T51 number the members; Template.family is
# the letter plus the member's index, or the bare letter for families of one.
_IMAGE_ORDER = tuple(map(SYMMETRY_OPS.index, (
    "identity", "reflect_h", "reflect_v", "rotate180",
    "rotate90", "antitranspose", "transpose", "rotate270")))

RULE_SIZES = (8, 36, 52)

# Row-major weights of the 3x3 cells in a window code (Pattern.codes).
_ROW_WEIGHTS = tuple(w for _, w in sorted(zip(MOORE_OFFSETS, WINDOW_WEIGHTS)))


@dataclass(frozen=True)
class Template:
    """A 3x3 binary stencil: its 9-bit window code and a label.

    code has the layout of Pattern.codes: outer cell k (row-major,
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
        return _builtin().get(self.code, (None, ""))[1]

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
    """(template, family name) of each built-in, in label order, by code."""
    out = {}
    for letter, rows in _FAMILIES:
        images = _symmetry_codes()[Template.from_rows(rows.split()).code]
        members = list(dict.fromkeys(images[i] for i in _IMAGE_ORDER))
        for k, code in enumerate(members):
            out[code] = (Template(code, f"T{len(out)}"),
                         f"{letter}{k}" if len(members) > 1 else letter)
    return out


def builtin_set(variant: int) -> TemplateSet:
    """The canonical template set for rule 8, 36 or 52."""
    if variant not in RULE_SIZES:
        raise ValueError(f"rule variant must be one of {RULE_SIZES}, "
                         f"got {variant}")
    return TemplateSet(tuple(t for t, _ in _builtin().values())[:variant])


@lru_cache(maxsize=None)
def _symmetry_codes() -> tuple[tuple[int, ...], ...]:
    """Per window code: the codes of its eight grid.symmetry_images."""
    codes = np.arange(512)[:, None]
    cells = (codes & _ROW_WEIGHTS) != 0  # (512, 9), row-major
    # each image, applied to the cell positions, is a permutation of them
    perms = [img.reshape(-1)
             for img in symmetry_images(np.arange(9).reshape(3, 3))]
    return tuple(map(tuple, (cells[:, perms] @ _ROW_WEIGHTS).tolist()))


def _labelled(codes, used=frozenset()) -> tuple[Template, ...]:
    """Templates of new codes, in order, under the one labelling rule.

    A built-in code takes its built-in label unless a label in used already
    names it; every other code takes the next X0, X1, ... not in used.
    """
    fresh = (f"X{k}" for k in count() if f"X{k}" not in used)
    known = {c: t for c, (t, _) in _builtin().items() if t.label not in used}
    return tuple(known.get(c) or Template(c, next(fresh)) for c in codes)


def complete_under_symmetry(ts: TemplateSet) -> TemplateSet:
    """Close a set under the eight symmetries, keeping the original order.

    New images are appended in closure order, labelled by _labelled with
    the labels of ts in use.
    """
    old = {t.code for t in ts}
    new = dict.fromkeys(c for t in ts for c in _symmetry_codes()[t.code]
                        if c not in old)
    return TemplateSet(ts.templates + _labelled(new, set(ts.labels())))


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
    ts = TemplateSet(_labelled(codes[np.argsort(first)].tolist()))
    return complete_under_symmetry(ts) if complete else ts


def match_except_center(p: Pattern, c: Coord, t: Template) -> bool:
    """True iff the eight outer window cells at c equal t's outer cells."""
    v = t.values
    return all(p.at(c.i + di, c.j + dj) == v[di + 1][dj + 1]
               for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj)


def match_full(p: Pattern, c: Coord, t: Template) -> bool:
    """Outer match plus center equality."""
    return p.at(c.i, c.j) == t.center and match_except_center(p, c, t)


def serialize_templates(ts: TemplateSet) -> str:
    blocks = []
    for t in ts:
        lines = [f"# {t.label}"] if t.label else []
        lines += ("".join(map(str, row)) for row in t.values)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def parse_templates(text: str) -> TemplateSet:
    """Parse 3-line blocks, each with an optional '# label' line before it.

    A label line that no block follows raises PatternError.
    """
    out, rows, label = [], [], None
    # a label line stands for the end: it closes the last block, and it
    # finds no label line still waiting for its block
    for line in [*map(str.strip, text.splitlines()), "#"]:
        if rows and (not line or line.startswith("#")):
            # a blank line or a label line closes the block
            out.append(Template.from_rows(rows, label or ""))
            rows, label = [], None
        if line.startswith("#"):
            if label is not None:
                raise PatternError(f"label line {label!r} has no template")
            label = line.lstrip("#").strip()
        elif line:
            rows.append(line)
    return TemplateSet(tuple(out))
