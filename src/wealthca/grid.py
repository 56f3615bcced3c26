"""Toroidal binary grids: patterns, 3x3 windows, symmetries, text I/O."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

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


def check_int(n) -> None:
    """Raise PatternError unless n is an int or numpy int (operator.index)."""
    try:
        operator.index(n)
    except TypeError:
        raise PatternError(f"size must be an integer, got {n!r}") from None


def check_size(n: int) -> None:
    """Raise PatternError unless n is a valid side length (an integer >= 3).

    Below 3 the eight Moore neighbors of a cell are no longer distinct.
    """
    check_int(n)
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
        cells = self.cells
        try:  # ints and bools in 0..255 pass, other types raise; list()
            # refuses a bare int and keeps bytes() off an array's buffer
            data = bytes(cells if isinstance(cells, (tuple, list, bytes))
                         else list(cells))
        except (TypeError, ValueError):
            data = None
        if data is None or data.translate(None, b"\0\1"):
            raise PatternError("cell values must be 0 or 1")
        if len(data) != self.n * self.n:
            raise PatternError(
                f"expected {self.n * self.n} cells, got {len(data)}")
        object.__setattr__(self, "cells", tuple(data))  # plain ints
        object.__setattr__(self, "_bytes", data)  # for to_array, codes, ones

    def __reduce__(self):  # not the cached codes: they would load writable
        return type(self), (self.n, self.cells)

    @cached_property
    def codes(self) -> np.ndarray:
        """Read-only (n, n) int64 array of each cell's 9-bit window code
        (WINDOW_WEIGHTS), the one source of window codes.

        The codes come from whole-array sums over the pattern wrapped at its
        edges, so no per-size index table is built or kept.
        """
        n = self.n
        b = np.frombuffer(self._bytes, np.uint8).astype(np.int64).reshape(n, n)
        wrap = np.arange(-1, n + 1) % n
        w = b[:, wrap]  # each row with its last cell before and first after it
        # l + 2c + 4r over a cell's (left, center, right) row triple is bits
        # 0-2 of the code of the cell below it and, shifted by 5, bits 5-7 of
        # the code of the cell above it; its own row adds 8l + 16r + 256c
        row = w[:, :-2] + 2 * w[:, 1:-1] + 4 * w[:, 2:]
        codes = row[wrap[:-2]] + (row[wrap[2:]] << 5)
        codes += 8 * w[:, :-2] + 16 * w[:, 2:] + 256 * b
        codes.setflags(write=False)
        return codes

    @classmethod
    def from_rows(cls, rows) -> "Pattern":
        """The pattern of n rows of n 0/1 ints or '0'/'1' characters."""
        rows = [list(r) for r in rows]
        if any(len(r) != len(rows) for r in rows):
            raise PatternError(f"expected {len(rows)} rows of {len(rows)} "
                               f"cells, got row lengths "
                               f"{[len(r) for r in rows]}")
        # the digits become ints; __post_init__ checks every cell
        return cls(len(rows), tuple(int(v) if v in ("0", "1") else v
                                    for r in rows for v in r))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Pattern":
        """The pattern of a square 2-D array of 0/1 ints or bools."""
        arr = np.asarray(arr)
        if arr.ndim != 2:  # the cell count then checks that it is square
            raise PatternError(f"expected a 2-D array, got shape {arr.shape}")
        return cls(arr.shape[0], arr.reshape(-1).tolist())

    @classmethod
    def from_board(cls, n: int, board: int) -> "Pattern":
        """Inverse of pack: the n x n pattern of a bitboard."""
        if not 0 <= board < 1 << (n * n):
            raise PatternError(f"a {n}x{n} board must be in [0, 2^{n * n}), "
                               f"got {board}")
        data = board.to_bytes((n * n + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                             count=n * n, bitorder="little")
        return cls(n, bits.tobytes())

    @classmethod
    def zeros(cls, n: int) -> "Pattern":
        return cls(n, (0,) * (n * n))

    def to_array(self) -> np.ndarray:
        """A fresh, writable (n, n) uint8 array of the cells."""
        return np.frombuffer(bytearray(self._bytes),
                             dtype=np.uint8).reshape(self.n, self.n)

    def at(self, i: int, j: int) -> int:
        """Cell value with toroidal wrap."""
        return self.cells[(i % self.n) * self.n + (j % self.n)]

    def __getitem__(self, ij) -> int:
        return self.at(*ij)

    @property
    def ones(self) -> int:
        return self._bytes.count(1)

    def rows(self) -> list[str]:
        n = self.n
        return ["".join(str(v) for v in self.cells[i * n:(i + 1) * n])
                for i in range(n)]


# Bitboards: a pattern packed into one Python int, bit k = flat cell k
# (row-major), the layout of the oracle's pattern codes.

def pack_words(rows: np.ndarray) -> np.ndarray:
    """uint64 bitboards of the rows of a 2-D 0/1 or bool array of <= 64
    columns."""
    if rows.shape[1] > 64:
        raise ValueError(f"a uint64 holds 64 cells, got {rows.shape[1]}")
    # packbits, not a matmul by 2^k: as fast, and numpy's integer matmul
    # adds 0.3 MB to the peak RSS of a process on its first call
    packed = np.packbits(rows, axis=1, bitorder="little")
    words = np.zeros((len(rows), 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view("<u8")[:, 0]


def pack_rows(rows: np.ndarray) -> list[int]:
    """Bitboards of the rows of a 2-D 0/1 or bool array."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[k:k + width], "little")
            for k in range(0, len(data), width)]


def pack(p: Pattern) -> int:
    """Bitboard of a pattern; the inverse of Pattern.from_board."""
    return pack_rows(p.to_array().reshape(1, -1))[0]


def window_indices(n: int) -> np.ndarray:
    """(n*n, 9) flat indices of each cell's 3x3 window, MOORE_OFFSETS order.

    Uncached, at 72 bytes per cell. ca._window_flat_indices reads it once
    per size, perfbench times it in its set-up, and the tests check
    Pattern.codes against bits[window_indices(n)] @ WINDOW_WEIGHTS.
    """
    i, j = np.divmod(np.arange(n * n, dtype=np.intp)[:, None], n)
    di, dj = np.array(MOORE_OFFSETS, dtype=np.intp).T
    idx = ((i + di) % n) * n + (j + dj) % n
    idx.setflags(write=False)
    return idx


def transform(p: Pattern, op: str, di: int = 0, dj: int = 0) -> Pattern:
    """Apply a symmetry operation or a cyclic shift.

    op is one of SYMMETRY_OPS or "shift"; di/dj are used by "shift" only.
    """
    arr = p.to_array()
    if op == "shift":
        return Pattern.from_array(np.roll(arr, (di, dj), axis=(0, 1)))
    if op not in _SYMMETRIES:
        raise ValueError(f"unknown symmetry op {op!r}")
    return Pattern.from_array(_SYMMETRIES[op](arr))


def symmetry_images(arr: np.ndarray) -> list[np.ndarray]:
    """All eight rotation/reflection images of a square array."""
    return [image(arr) for image in _SYMMETRIES.values()]


def parse(text: str) -> Pattern:
    """Parse lines of '0'/'1' characters into a Pattern."""
    lines = text.splitlines()
    # skip blank lines at both ends (all blank: none left); number from 1
    full = [k for k, line in enumerate(lines) if line.strip()] or [0, -1]
    top, lines = full[0], lines[full[0]:full[-1] + 1]
    n = len(lines)  # the side length; Pattern checks that it is >= 3
    for lineno, line in enumerate(lines, start=top + 1):
        if len(line) != n:
            raise PatternError(
                f"line {lineno}: expected {n} characters, got {len(line)}")
        bad = [ch for ch in line if ch not in "01"]
        if bad:
            raise PatternError(f"line {lineno}: illegal character {bad[0]!r}")
    return Pattern.from_rows(lines)


def serialize(p: Pattern) -> str:
    return "\n".join(p.rows()) + "\n"
