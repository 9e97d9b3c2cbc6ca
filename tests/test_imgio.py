"""Image file round trips and error handling."""

import struct
import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazeflow.errors import DataError
from hazeflow.imgio import _png_unfilter, load_image, save_image


def random_image(rng, h=9, w=7):
    return rng.uniform(0, 1, (1, 3, h, w)).astype(np.float32)


class TestPpm:
    def test_quantization_grid_roundtrip_exact(self, tmp_path):
        # values already on the 8-bit grid survive save/load exactly
        levels = np.arange(256, dtype=np.float32) / 255.0
        img = np.tile(levels, 3 * 2).reshape(1, 3, 2, 256)
        path = tmp_path / "grid.ppm"
        save_image(img, str(path))
        np.testing.assert_array_equal(load_image(str(path)), img)

    def test_roundtrip_quantization_bound(self, tmp_path, rng):
        img = random_image(rng, 16, 16)
        path = tmp_path / "img.ppm"
        save_image(img, str(path))
        loaded = load_image(str(path))
        assert np.abs(loaded - img).max() <= 1.0 / 510.0 + 1e-9

    def test_byte_extremes(self, tmp_path):
        img = np.zeros((1, 3, 1, 2), dtype=np.float32)
        img[0, :, 0, 1] = 1.0
        path = tmp_path / "extremes.ppm"
        save_image(img, str(path))
        loaded = load_image(str(path))
        assert loaded[0, 0, 0, 0] == 0.0
        assert loaded[0, 0, 0, 1] == 1.0

    def test_16bit_roundtrip(self, tmp_path, rng):
        img = random_image(rng, 8, 8)
        path = tmp_path / "deep.ppm"
        # written by hand: save_image writes 8-bit files only
        samples = np.rint(img[0].transpose(1, 2, 0).astype(np.float64) * 65535)
        path.write_bytes(b"P6\n8 8\n65535\n" + samples.astype(">u2").tobytes())
        loaded = load_image(str(path))
        assert np.abs(loaded - img).max() <= 1.0 / (2 * 65535) + 1e-9

    def test_comment_in_header(self, tmp_path):
        raw = b"P6\n# a comment\n2 1\n255\n" + bytes([0, 0, 0, 255, 255, 255])
        path = tmp_path / "commented.ppm"
        path.write_bytes(raw)
        img = load_image(str(path))
        assert img.shape == (1, 3, 1, 2)
        assert img[0, 0, 0, 1] == 1.0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(DataError):
            load_image(str(path))

    def test_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n\x00\x01")
        with pytest.raises(DataError):
            load_image(str(path))

    @pytest.mark.parametrize("size", [b"-1 -1", b"0 0", b"0 3", b"2 -4"])
    def test_size_below_one_rejected(self, tmp_path, size):
        path = tmp_path / "empty.ppm"
        path.write_bytes(b"P6\n" + size + b"\n255\n" + bytes(24))
        with pytest.raises(DataError, match="no pixels"):
            load_image(str(path))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=48),
        st.builds(lambda w, h, maxval, body: b"%d %d %d\n" % (w, h, maxval) + body,
                  st.integers(-2, 2**40), st.integers(-2, 2**40),
                  st.integers(-1, 70000), st.binary(max_size=48))))
    def test_arbitrary_bytes_after_magic(self, tmp_path_factory, tail):
        path = tmp_path_factory.mktemp("ppm") / "fuzz.ppm"
        path.write_bytes(b"P6" + tail)
        try:
            img = load_image(str(path))
        except DataError:
            return
        assert img.dtype == np.float32 and img.shape[:2] == (1, 3)
        assert img.size > 0 and 0.0 <= img.min() and img.max() <= 1.0


def test_missing_file():
    with pytest.raises(DataError):
        load_image("/nonexistent/never.ppm")


def test_png_roundtrip(tmp_path, rng):
    img = random_image(rng, 12, 10)
    path = tmp_path / "img.png"
    save_image(img, str(path))
    loaded = load_image(str(path))
    assert loaded.shape == img.shape
    assert np.abs(loaded - img).max() <= 1.0 / 510.0 + 1e-9


def test_save_and_load_working_set(tmp_path):
    # tracemalloc peaks for a 3x720x1280 float32 image as an 8-bit PPM:
    # save_image 52.7 MiB when it clipped, widened and scaled whole-image
    # copies, 7.6 MiB quantising bands of rows into the uint8 output;
    # load_image 23.7 MiB when it divided an HWC float32 copy and then
    # transposed it, 13.2 MiB converting once into the CHW output
    img = np.random.default_rng(0).uniform(0, 1, (1, 3, 720, 1280)).astype(np.float32)
    path = str(tmp_path / "mid.ppm")
    peaks = []
    tracemalloc.start()
    try:
        for step in (lambda: save_image(img, path), lambda: load_image(path)):
            tracemalloc.reset_peak()
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[0] < 30 * 2**20
    assert peaks[1] < 18 * 2**20


def test_save_rejects_batches(tmp_path, rng):
    batch = rng.uniform(0, 1, (2, 3, 4, 4)).astype(np.float32)
    with pytest.raises(DataError):
        save_image(batch, str(tmp_path / "batch.ppm"))


def _chunk(kind, payload):
    return (struct.pack(">I", len(payload)) + kind + payload
            + struct.pack(">I", zlib.crc32(kind + payload)))


def _png(width, height, colour, rows=(), depth=8, interlace=0, idat=None):
    """Assemble a PNG by hand from (filter type, filtered row bytes) pairs."""
    raw = b"".join(bytes([ftype]) + bytes(line) for ftype, line in rows)
    header = struct.pack(">IIBBBBB", width, height, depth, colour, 0, 0,
                         interlace)
    return (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", header)
            + _chunk(b"IDAT", zlib.compress(raw) if idat is None else idat)
            + _chunk(b"IEND", b""))


def _as_image(hwc_pixels):
    hwc = np.array(hwc_pixels, dtype=np.float32) / 255.0
    return hwc.transpose(2, 0, 1)[None]


def _load_bytes(tmp_path, data, name="hand.png"):
    path = tmp_path / name
    path.write_bytes(data)
    return load_image(str(path))


class TestPngFilters:
    """Decoding of hand-filtered rows; all arithmetic is modulo 256."""

    def test_rgb_one_row_per_filter_type(self, tmp_path):
        # RGB, 2 pixels per row, 3 bytes per pixel; a = left, b = up,
        # c = up-left, each 0 outside the image
        rows = [
            # None: (10,20,30) (40,50,60) stored as is
            (0, [10, 20, 30, 40, 50, 60]),
            # Sub, target (12,22,32) (200,100,250): pixel 0 has a = 0;
            # 200-12=188, 100-22=78, 250-32=218
            (1, [12, 22, 32, 188, 78, 218]),
            # Up, target (5,22,40) (210,90,10) over (12,22,32) (200,100,250):
            # 5-12=249, 22-22=0, 40-32=8, 210-200=10, 90-100=246, 10-250=16
            (2, [249, 0, 8, 10, 246, 16]),
            # Average, target (100,101,102) (50,60,70), pred = (a+b)>>1
            # over (5,22,40) (210,90,10): pixel 0: 100-2=98, 101-11=90,
            # 102-20=82; pixel 1 (a+b may exceed 255): (100+210)>>1=155,
            # 50-155=151; (101+90)>>1=95, 60-95=221; (102+10)>>1=56, 70-56=14
            (3, [98, 90, 82, 151, 221, 14]),
            # Paeth, target (7,95,130) (90,200,65) over (100,101,102)
            # (50,60,70); p = a+b-c, pick the nearest of a, b, c (ties: a, b).
            # Pixel 0: a = c = 0 so pred = b: 7-100=163, 95-101=250,
            # 130-102=28. Pixel 1: R a=7 b=50 c=100, |p-a|=50 |p-b|=93
            # |p-c|=143 -> a, 90-7=83; G a=95 b=60 c=101, 41/6/47 -> b,
            # 200-60=140; B a=130 b=70 c=102, 32/28/4 -> c, 65-102=219
            (4, [163, 250, 28, 83, 140, 219]),
        ]
        img = _load_bytes(tmp_path, _png(2, 5, 2, rows))
        expected = _as_image([
            [[10, 20, 30], [40, 50, 60]],
            [[12, 22, 32], [200, 100, 250]],
            [[5, 22, 40], [210, 90, 10]],
            [[100, 101, 102], [50, 60, 70]],
            [[7, 95, 130], [90, 200, 65]],
        ])
        np.testing.assert_array_equal(img, expected)

    def test_grey_broadcast_to_rgb(self, tmp_path):
        rows = [
            # Sub, target 10 250 5: 10, 250-10=240, 5-250=11
            (1, [10, 240, 11]),
            # Paeth, target 20 30 40 over 10 250 5: pixel 0 pred b=10 -> 10;
            # a=20 b=250 c=10: |p-a|=240 |p-b|=10 |p-c|=250 -> b, 30-250=36;
            # a=30 b=5 c=250: 245/220/465 -> b, 40-5=35
            (4, [10, 36, 35]),
            # Paeth ties, target 0 25 77 over 20 30 40: pixel 0 pred b=20,
            # 0-20=236; a=0 b=30 c=20: |p-a|=10 |p-b|=20 |p-c|=10, tie goes
            # to a, 25-0=25; a=25 b=40 c=30: 10/5/5, tie goes to b, 77-40=37
            (4, [236, 25, 37]),
        ]
        img = _load_bytes(tmp_path, _png(3, 3, 0, rows))
        grey = [[10, 250, 5], [20, 30, 40], [0, 25, 77]]
        expected = _as_image([[[v] * 3 for v in row] for row in grey])
        np.testing.assert_array_equal(img, expected)

    def test_rgba_alpha_dropped(self, tmp_path):
        rows = [
            # Sub, target (10,20,30,255) (40,50,60,128): 40-10=30, 50-20=30,
            # 60-30=30, 128-255=129
            (1, [10, 20, 30, 255, 30, 30, 30, 129]),
            # Average, target (1,2,3,0) (200,201,202,77): pixel 0 pred = b>>1
            # = 5,10,15,127: 252, 248, 244, 129; pixel 1 pred = (a+b)>>1 with
            # a=(1,2,3,0) b=(40,50,60,128) = 20,26,31,64: 180, 175, 171, 13
            (3, [252, 248, 244, 129, 180, 175, 171, 13]),
        ]
        img = _load_bytes(tmp_path, _png(2, 2, 6, rows))
        expected = _as_image([[[10, 20, 30], [40, 50, 60]],
                              [[1, 2, 3], [200, 201, 202]]])
        np.testing.assert_array_equal(img, expected)


def _unfilter_per_byte(raw, height, stride, bpp):
    # the PNG specification's reconstruction, one byte at a time: a = left,
    # b = up, c = up-left, each 0 outside the image
    out = bytearray(height * stride)
    for y in range(height):
        ftype = raw[y * (stride + 1)]
        for i in range(stride):
            a = out[y * stride + i - bpp] if i >= bpp else 0
            b = out[(y - 1) * stride + i] if y else 0
            c = out[(y - 1) * stride + i - bpp] if y and i >= bpp else 0
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            paeth = a if pa <= pb and pa <= pc else b if pb <= pc else c
            pred = (0, a, b, (a + b) >> 1, paeth)[ftype]
            out[y * stride + i] = (raw[y * (stride + 1) + 1 + i] + pred) & 0xFF
    return np.frombuffer(bytes(out), np.uint8).reshape(height, stride)


@pytest.mark.parametrize("bpp", [1, 2, 3, 4])
@pytest.mark.parametrize("height,width", [(9, 7), (5, 23), (31, 4), (70, 3)])
@pytest.mark.parametrize("ends", ["inside", "at-edges"])
def test_random_mixed_filters_match_per_byte_reference(bpp, height, width, ends):
    # random filtered bytes under a random mix of all five filters, with
    # Average and Paeth rows inside the image or also on its first and
    # last rows
    rng = np.random.default_rng(100 * bpp + height + (ends == "inside"))
    stride = width * bpp
    rows = rng.integers(0, 256, (height, stride + 1), dtype=np.uint8)
    rows[:, 0] = rng.integers(0, 5, height)
    rows[[1, height // 2], 0] = (3, 4)
    rows[[0, -1], 0] = (1, 2) if ends == "inside" else (4, 3)
    raw = rows.tobytes()
    np.testing.assert_array_equal(_png_unfilter(raw, height, stride, bpp),
                                  _unfilter_per_byte(raw, height, stride, bpp))


def test_tall_narrow_image_decodes_in_memory_linear_in_its_size():
    # a decoder that skews the whole image at once holds (W + H) * H
    # pixels, 75 MB here; in bands the peak is 28 kB, near the 15 kB output
    height, stride, bpp = 5000, 3, 3
    rows = np.random.default_rng(5).integers(0, 256, (height, stride + 1),
                                             dtype=np.uint8)
    rows[:, 0] = 4
    raw = rows.tobytes()
    _png_unfilter(raw[:2 * (stride + 1)], 2, stride, bpp)  # builds the table
    tracemalloc.start()
    try:
        out = _png_unfilter(raw, height, stride, bpp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * height * stride
    np.testing.assert_array_equal(out, _unfilter_per_byte(raw, height, stride, bpp))


def _valid_png(tmp_path):
    path = tmp_path / "valid.png"
    save_image(np.full((1, 3, 4, 5), 0.5, dtype=np.float32), str(path))
    return path.read_bytes()


def _flip_last_idat_byte(data):
    end = data.index(b"IEND") - 8  # last byte of the IDAT payload
    return data[:end] + bytes([data[end] ^ 0xFF]) + data[end + 1:]


class TestBadPng:
    @pytest.mark.parametrize("corrupt", [
        lambda d: b"\x88" + d[1:],                       # bad signature
        _flip_last_idat_byte,                            # bad chunk CRC
        lambda d: d[:len(d) // 2],                       # truncated file
        lambda d: d[:8] + d[33:],                        # missing IHDR
    ], ids=["signature", "crc", "truncated-file", "missing-ihdr"])
    def test_corrupt_file_is_data_error(self, tmp_path, corrupt):
        data = corrupt(_valid_png(tmp_path))
        with pytest.raises(DataError):
            _load_bytes(tmp_path, data)

    def test_truncated_image_data(self, tmp_path):
        whole = zlib.compress(bytes([0, 1, 2, 3]) * 4)
        with pytest.raises(DataError, match="expected 16"):
            _load_bytes(tmp_path, _png(1, 4, 2, idat=whole[:-6]))

    def test_undecompressible_image_data(self, tmp_path):
        with pytest.raises(DataError, match="corrupt"):
            _load_bytes(tmp_path, _png(1, 1, 2, idat=b"not a zlib stream"))

    def test_bad_filter_type(self, tmp_path):
        with pytest.raises(DataError, match="filter type 5"):
            _load_bytes(tmp_path, _png(1, 1, 2, [(5, [1, 2, 3])]))

    @pytest.mark.parametrize("variant, kwargs", [
        ("16-bit", dict(depth=16)),
        ("palette", dict(colour=3)),
        ("interlaced", dict(interlace=1)),
    ])
    def test_unsupported_variant_without_pillow(self, tmp_path, monkeypatch,
                                                variant, kwargs):
        monkeypatch.setitem(sys.modules, "PIL", None)  # import PIL fails
        args = dict(width=1, height=1, colour=2, rows=[(0, [1, 2, 3])])
        args.update(kwargs)
        with pytest.raises(DataError, match=f"{variant} PNG"):
            _load_bytes(tmp_path, _png(**args))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_bytes_give_image_or_data_error(self, tmp_path_factory,
                                                    data):
        raw = bytearray(_valid_png(tmp_path_factory.mktemp("fuzz")))
        for _ in range(data.draw(st.integers(1, 4))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(
                st.integers(0, 255))
        raw = raw[:data.draw(st.integers(0, len(raw)))]
        path = tmp_path_factory.mktemp("fuzz") / "mutated.png"
        path.write_bytes(bytes(raw))
        try:
            img = load_image(str(path))
        except DataError:
            return
        assert img.dtype == np.float32 and img.shape[:2] == (1, 3)


class TestPillowCrossCheck:
    def test_pillow_reads_hazeflow_png(self, tmp_path, rng):
        Image = pytest.importorskip("PIL.Image")
        img = random_image(rng, 13, 11)
        path = tmp_path / "ours.png"
        save_image(img, str(path))
        with Image.open(path) as im:
            assert im.mode == "RGB"
            theirs = np.asarray(im)
        ours = np.rint(img[0].transpose(1, 2, 0).astype(np.float64) * 255)
        np.testing.assert_array_equal(theirs, ours.astype(np.uint8))

    @pytest.mark.parametrize("mode", ["RGB", "RGBA", "L", "LA"])
    def test_hazeflow_reads_pillow_png(self, tmp_path, mode):
        # smooth ramps plus texture, so Pillow's adaptive row filter choice
        # lands on more than one filter type
        Image = pytest.importorskip("PIL.Image")
        y, x = np.mgrid[0:37, 0:29]
        channels = [x * 7 + y, (x * y) % 251, y * 5, (x ^ y) * 9]
        rgba = Image.fromarray(np.stack(channels, axis=-1).astype(np.uint8))
        path = tmp_path / "theirs.png"
        rgba.convert(mode).save(path)
        with Image.open(path) as im:
            expected = np.asarray(im.convert("RGB"), dtype=np.float32) / 255.0
        np.testing.assert_array_equal(
            load_image(str(path)), expected.transpose(2, 0, 1)[None])
