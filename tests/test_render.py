import pytest

from wealthca.grid import Pattern, parse, transform
from wealthca.render import ppm_bytes, write_ppm


def pixels(data: bytes, width: int, height: int):
    """Decode a P6 body into a row-major list of RGB triples."""
    header = f"P6\n{width} {height}\n255\n".encode()
    assert data.startswith(header)
    body = data[len(header):]
    assert len(body) == width * height * 3
    return [tuple(body[k:k + 3]) for k in range(0, len(body), 3)]


class TestPpm:
    def test_header_and_colors(self):
        p = parse("000\n010\n000")
        px = pixels(ppm_bytes(p), 3, 3)
        assert px[4] == (0, 0, 0)
        assert px.count((255, 255, 255)) == 8

    def test_scale_blows_up_cells(self):
        p = parse("000\n010\n000")
        px = pixels(ppm_bytes(p, scale=4), 12, 12)
        assert px.count((0, 0, 0)) == 16

    def test_quad_tiles_two_by_two(self, optimal5):
        data = ppm_bytes(optimal5, quad=True)
        px = pixels(data, 10, 10)
        assert px.count((0, 0, 0)) == 4 * optimal5.ones

    def test_singularity_marked_red(self, optimal5):
        px = pixels(ppm_bytes(optimal5, mark_singularities=True), 5, 5)
        reds = [k for k, c in enumerate(px) if c == (255, 0, 0)]
        # the single maximal 2x2 zero block at (2, 1)
        assert reds == [2 * 5 + 1, 2 * 5 + 2, 3 * 5 + 1, 3 * 5 + 2]
        # shifted down by 2 and right by 3, the block wraps both torus seams:
        # rows 4 and 0, columns 4 and 0
        shifted = transform(optimal5, "shift", 2, 3)
        px = pixels(ppm_bytes(shifted, mark_singularities=True), 5, 5)
        reds = [k for k, c in enumerate(px) if c == (255, 0, 0)]
        assert reds == [0 * 5 + 0, 0 * 5 + 4, 4 * 5 + 0, 4 * 5 + 4]

    def test_no_marks_without_singularities(self):
        px = pixels(ppm_bytes(Pattern.zeros(4), mark_singularities=True), 4, 4)
        assert all(c == (255, 255, 255) for c in px)

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            ppm_bytes(Pattern.zeros(3), scale=0)

    @pytest.mark.parametrize("n, scale, quad", [(3, 10**9, False),
                                                (4, 1025, True)])
    def test_image_above_the_pixel_cap_refused(self, n, scale, quad):
        # quad doubles the side: 8200 pixels, where MAX_PIXELS is 8192**2
        with pytest.raises(ValueError, match="exceeds"):
            ppm_bytes(Pattern.zeros(n), scale=scale, quad=quad)


class TestWrite:
    def test_writes_file(self, tmp_path, optimal5):
        out = tmp_path / "p.ppm"
        write_ppm(out, optimal5, scale=2)
        assert out.read_bytes() == ppm_bytes(optimal5, scale=2)

    def test_unwritable_path_raises_with_location(self, tmp_path, optimal5):
        bad = tmp_path / "missing" / "p.ppm"
        with pytest.raises(OSError, match="missing"):
            write_ppm(bad, optimal5)
