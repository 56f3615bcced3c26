"""Binary PPM (P6) rendering of patterns."""

from __future__ import annotations

import numpy as np

from .analysis import detect_singularities
from .grid import Pattern

WHITE = (255, 255, 255)
BLACK = (0, 0, 0)
RED = (255, 0, 0)
MAX_PIXELS = 2**26  # 192 MiB of RGB; a larger image is refused unallocated


def ppm_bytes(p: Pattern, scale: int = 1, quad: bool = False,
              mark_singularities: bool = False) -> bytes:
    """Render 0-cells white and 1-cells black; singularity overlay in red.

    quad tiles the pattern 2x2 to expose structures wrapped across the torus
    seam; scale multiplies every cell into a scale x scale pixel block. An
    image of more than MAX_PIXELS pixels raises ValueError.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    n = p.n
    side = n * scale * (2 if quad else 1)
    if side * side > MAX_PIXELS:
        raise ValueError(f"a {side}x{side} image exceeds {MAX_PIXELS} pixels")
    img = np.array((WHITE, BLACK), dtype=np.uint8)[p.to_array()]
    if mark_singularities:
        c = np.array(detect_singularities(p), dtype=np.intp).reshape(-1, 2)
        # the rows and columns of each corner's 2x2 block, wrapped
        img[(c[:, :1] + [0, 0, 1, 1]) % n, (c[:, 1:] + [0, 1, 0, 1]) % n] = RED
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
