"""Binary PPM (P6) rendering of patterns."""

from __future__ import annotations

import numpy as np

from .analysis import detect_singularities
from .grid import Pattern

WHITE = (255, 255, 255)
BLACK = (0, 0, 0)
RED = (255, 0, 0)


def ppm_bytes(p: Pattern, scale: int = 1, quad: bool = False,
              mark_singularities: bool = False) -> bytes:
    """Render 0-cells white and 1-cells black; singularity overlay in red.

    quad tiles the pattern 2x2 to expose structures wrapped across the torus
    seam; scale multiplies every cell into a scale x scale pixel block.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    n = p.n
    img = np.empty((n, n, 3), dtype=np.uint8)
    arr = p.to_array()
    img[arr == 0] = WHITE
    img[arr == 1] = BLACK
    if mark_singularities:
        for i, j in detect_singularities(p):
            for a in (0, 1):
                for b in (0, 1):
                    img[(i + a) % n, (j + b) % n] = RED
    if quad:
        img = np.tile(img, (2, 2, 1))
    if scale > 1:
        img = np.repeat(np.repeat(img, scale, axis=0), scale, axis=1)
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    return header + img.tobytes()


def write_ppm(path, p: Pattern, scale: int = 1, quad: bool = False,
              mark_singularities: bool = False) -> None:
    data = ppm_bytes(p, scale=scale, quad=quad,
                     mark_singularities=mark_singularities)
    with open(path, "wb") as fh:
        fh.write(data)
