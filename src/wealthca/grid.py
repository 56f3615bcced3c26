"""Toroidal binary grids: patterns, 3x3 windows, symmetries, text I/O."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Window order shared by window codes and templates: center first, then the
# eight outer cells row-major over the 3x3 window.
MOORE_OFFSETS = (
    (0, 0),
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)

#: Bit weight of each MOORE_OFFSETS cell in a 9-bit window code: outer cell k
#: is bit k (the order of Template.outer_code), the center is bit 8.
WINDOW_WEIGHTS = (256, 1, 2, 4, 8, 16, 32, 64, 128)

# The eight rotations/reflections of a square array, by name.
_SYMMETRIES = {
    "identity": lambda a: a,
    "rotate90": lambda a: np.rot90(a, -1),  # clockwise
    "rotate180": lambda a: np.rot90(a, 2),
    "rotate270": lambda a: np.rot90(a, 1),
    "reflect_h": lambda a: a[::-1],  # mirror against the horizontal center line
    "reflect_v": lambda a: a[:, ::-1],  # ... and the vertical one
    "transpose": lambda a: a.T,
    "antitranspose": lambda a: a[::-1, ::-1].T,
}

#: The eight rotation/reflection operations accepted by :func:`transform`.
SYMMETRY_OPS = tuple(_SYMMETRIES)


class PatternError(ValueError):
    """Raised for malformed pattern data or text."""


def check_size(n: int) -> None:
    """Raise PatternError unless n is a valid side length (>= 3).

    Below 3 the eight Moore neighbors of a cell are no longer distinct.
    """
    if n < 3:
        raise PatternError(f"side length must be >= 3, got {n}")


@dataclass(frozen=True)
class Coord:
    """Grid coordinate (row i, column j)."""

    i: int
    j: int


@dataclass(frozen=True)
class Pattern:
    """An n x n binary grid with cyclic boundaries, stored row-major."""

    n: int
    cells: tuple[int, ...]

    def __post_init__(self):
        check_size(self.n)
        if len(self.cells) != self.n * self.n:
            raise PatternError(
                f"expected {self.n * self.n} cells, got {len(self.cells)}")
        if any(v not in (0, 1) for v in self.cells):
            raise PatternError("cell values must be 0 or 1")

    @classmethod
    def from_rows(cls, rows) -> "Pattern":
        """The pattern of n rows of n 0/1 ints or '0'/'1' characters."""
        rows = [list(r) for r in rows]
        if any(len(r) != len(rows) for r in rows):
            raise PatternError(f"expected {len(rows)} rows of {len(rows)} "
                               f"cells, got row lengths "
                               f"{[len(r) for r in rows]}")
        cells = [v for r in rows for v in r]
        if any(v not in (0, 1, "0", "1") for v in cells):
            raise PatternError("cell values must be 0, 1, '0' or '1'")
        return cls(len(rows), tuple(map(int, cells)))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Pattern":
        arr = np.asarray(arr)
        return cls(arr.shape[0], tuple(int(v) for v in arr.reshape(-1)))

    @classmethod
    def from_board(cls, n: int, board: int) -> "Pattern":
        """Inverse of pack: the n x n pattern of a bitboard."""
        if not 0 <= board < 1 << (n * n):
            raise PatternError(f"a {n}x{n} board must be in [0, 2^{n * n}), "
                               f"got {board}")
        data = board.to_bytes((n * n + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                             count=n * n, bitorder="little")
        return cls(n, tuple(bits.tolist()))

    @classmethod
    def zeros(cls, n: int) -> "Pattern":
        return cls(n, (0,) * (n * n))

    def to_array(self) -> np.ndarray:
        return np.array(self.cells, dtype=np.uint8).reshape(self.n, self.n)

    def at(self, i: int, j: int) -> int:
        """Cell value with toroidal wrap."""
        return self.cells[(i % self.n) * self.n + (j % self.n)]

    def __getitem__(self, ij) -> int:
        return self.at(*ij)

    @property
    def ones(self) -> int:
        return sum(self.cells)

    def rows(self) -> list[str]:
        n = self.n
        return ["".join(str(v) for v in self.cells[i * n:(i + 1) * n])
                for i in range(n)]


# Bitboards: a pattern packed into one Python int, bit k = flat cell k
# (row-major), the layout of the oracle's pattern codes.

def pack_rows(rows: np.ndarray) -> list[int]:
    """Bitboards of the rows of a 2-D 0/1 or bool array."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[k:k + width], "little")
            for k in range(0, len(data), width)]


def pack(cells) -> int:
    """Bitboard of a flat sequence of 0/1 Python ints."""
    return pack_rows(np.frombuffer(bytes(cells), dtype=np.uint8)[None])[0]


@lru_cache(maxsize=None)
def window_indices(n: int) -> np.ndarray:
    """(n*n, 9) flat indices of each cell's 3x3 window, MOORE_OFFSETS order."""
    i, j = np.divmod(np.arange(n * n, dtype=np.intp)[:, None], n)
    di, dj = np.array(MOORE_OFFSETS, dtype=np.intp).T
    idx = ((i + di) % n) * n + (j + dj) % n
    idx.setflags(write=False)
    return idx


def window_codes(cells, n: int) -> np.ndarray:
    """9-bit code of each cell's 3x3 window (WINDOW_WEIGHTS), flat row-major.

    cells is any row-major sequence or array of the n*n cell values.
    """
    bits = np.asarray(cells, dtype=np.intp).reshape(-1)
    return bits[window_indices(n)] @ WINDOW_WEIGHTS


def transform(p: Pattern, op: str, di: int = 0, dj: int = 0) -> Pattern:
    """Apply a symmetry operation or a cyclic shift.

    op is one of SYMMETRY_OPS or "shift"; di/dj are used by "shift" only.
    """
    if op == "shift":
        arr = np.roll(np.roll(p.to_array(), di, axis=0), dj, axis=1)
        return Pattern.from_array(arr)
    if op not in _SYMMETRIES:
        raise ValueError(f"unknown symmetry op {op!r}")
    return Pattern.from_array(_SYMMETRIES[op](p.to_array()))


def symmetry_images(arr: np.ndarray) -> list[np.ndarray]:
    """All eight rotation/reflection images of a square array."""
    return [image(arr) for image in _SYMMETRIES.values()]


def parse(text: str) -> Pattern:
    """Parse lines of '0'/'1' characters into a Pattern."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) < 3:
        raise PatternError(f"need at least 3 rows, got {len(lines)}")
    n = len(lines[0])
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if len(line) != n:
            raise PatternError(
                f"line {lineno}: expected {n} characters, got {len(line)}")
        row = []
        for ch in line:
            if ch not in "01":
                raise PatternError(f"line {lineno}: illegal character {ch!r}")
            row.append(int(ch))
        rows.append(row)
    if len(rows) != n:
        raise PatternError(f"expected {n} rows for width {n}, got {len(rows)}")
    check_size(n)
    return Pattern.from_rows(rows)


def serialize(p: Pattern) -> str:
    return "\n".join(p.rows()) + "\n"
