"""Image file I/O.

Binary PPM (P6) and PNG are read and written natively, and written as 8-bit
RGB only. The PPM reader takes 8- and 16-bit files, the PNG reader 8-bit
non-interlaced grey, grey with alpha, RGB and RGBA (grey is broadcast to RGB,
alpha is dropped). Other PNG variants and other formats (JPEG etc.) go through
Pillow when it is installed. Pixels are normalized to [0, 1] float32 on load,
shaped (1, 3, H, W).
"""

from __future__ import annotations

import functools
import os
import struct
import sys
import zlib

import numpy as np

from .errors import DataError
from .tensor import _STRIP_ELEMS

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}  # colour type -> samples per pixel
_OTHER_FORMATS = "formats other than PPM and PNG"


def _read_ppm(path: str) -> tuple[np.ndarray, int]:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise DataError(f"{path}: not a binary PPM (P6) file")

    # header tokens may be separated by whitespace and '#' comments
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated PPM header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval

    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise DataError(f"{path}: malformed PPM header") from exc
    if maxval <= 0 or maxval >= 65536:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    if width < 1 or height < 1:
        raise DataError(f"{path}: PPM size {width}x{height} has no pixels")

    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    count = width * height * 3
    if count * dtype.itemsize > len(data) - pos:
        raise DataError(f"{path}: truncated pixel data")
    raw = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    # a sample above maxval would scale past 1.0; at the dtype's own
    # maximum no sample can exceed it, so the scan is skipped
    if maxval != np.iinfo(dtype).max and raw.max() > maxval:
        raise DataError(f"{path}: PPM sample exceeds maxval {maxval}")
    return raw.reshape(height, width, 3), maxval


def _pillow(path: str, what: str):
    try:
        from PIL import Image
    except ImportError as exc:
        raise DataError(f"{path}: Pillow is required for {what}") from exc
    return Image


def _read_pillow(path: str, what: str) -> tuple[np.ndarray, int]:
    Image = _pillow(path, what)
    try:
        with Image.open(path) as im:
            return np.asarray(im.convert("RGB")), 255
    except Exception as exc:
        raise DataError(f"{path}: unreadable image ({exc})") from exc


def _png_chunk(kind: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + kind + payload
            + struct.pack(">I", zlib.crc32(kind + payload)))


def _write_png(path: str, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as 8-bit RGB, filter 0 on every row."""
    h, w = rgb.shape[:2]
    rows = np.zeros((h, 1 + 3 * w), dtype=np.uint8)
    rows[:, 1:] = rgb.reshape(h, 3 * w)
    header = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(_PNG_SIGNATURE + _png_chunk(b"IHDR", header)
                 + _png_chunk(b"IDAT", zlib.compress(rows.tobytes()))
                 + _png_chunk(b"IEND", b""))


@functools.cache
def _png_predictions() -> np.ndarray:
    # every filter's prediction minus the upper-left byte c is a function
    # of the filter type and the differences a - c, b - c alone (Average:
    # (a + b) >> 1 = c + ((a - c + b - c) >> 1)); None is 0 minus c, left
    # to the caller. Indexed [type, a - c + 255, b - c + 255], modulo 256.
    x = np.arange(-255, 256)[:, None]  # a - c, a the left byte
    y = np.arange(-255, 256)[None, :]  # b - c, b the upper byte
    pa, pb, pc = np.abs(y), np.abs(x), np.abs(x + y)
    paeth = np.where((pa <= pb) & (pa <= pc), x, np.where(pb <= pc, y, 0))
    table = np.stack(np.broadcast_arrays(0, x, y, (x + y) >> 1, paeth))
    table = (table & 0xFF).astype(np.uint8).reshape(-1)
    table.flags.writeable = False  # one copy, shared by every decode
    return table


def _png_unfilter(raw: bytes, height: int, stride: int, bpp: int) -> np.ndarray:
    """Undo the five PNG row filters; returns (height, stride) uint8.

    Every filter predicts a byte from its left, upper and upper-left
    neighbours only, so the pixels of one anti-diagonal (row + column
    constant) are decoded together in one vectorised step. Rows go in
    bands of at least width rows, each seeded with the row above it, so
    the skewed copy of a band stays within about twice its pixels. An
    image filtered None throughout, as hazeflow writes it, is its own
    decoding.
    """
    rows = np.frombuffer(raw, np.uint8).reshape(height, stride + 1)
    ftype = rows[:, 0]
    if ftype.max() > 4:
        y = int(np.argmax(ftype > 4))
        raise DataError(f"bad PNG row filter type {ftype[y]} in row {y}")
    if not ftype.any():
        return rows[:, 1:]
    w = stride // bpp
    out = np.empty((height, w, bpp), dtype=np.uint8)
    above = np.zeros((w, bpp), dtype=np.uint8)  # the row above the band
    predictions = _png_predictions()
    band = max(w, 32)  # narrow images: no set-up of a band per row or two
    for top in range(0, height, band):
        n = min(band, height - top)
        # skewed: d[u, k] is pixel (top + k - 1, u - k - 1), filtered until
        # its diagonal is decoded in place; column 0 holds the row above,
        # the zeros never written the pixels left of the image
        d = np.zeros((w + n + 1, n + 1, bpp), dtype=np.uint8)
        d[1:w + 1, 0] = above
        for k in range(1, n + 1):
            d[k + 1:k + 1 + w, k] = rows[top + k - 1, 1:].reshape(w, bpp)
        # per row, repeated over a pixel's bytes: the offset of its filter's
        # predictions in the table, and whether they add c (all but None)
        row_type = np.repeat(ftype[top:top + n, None].astype(np.int32), bpp, 1)
        base = row_type * (511 * 511) + 255 * 512
        keep = (row_type > 0).astype(np.uint8)
        for s in range(1, n + w):
            lo, hi = max(1, s - w + 1), min(n, s)  # rows k - 1, column s - k
            up_left = d[s, lo - 1:hi + 1].astype(np.int32)
            b, a = up_left[:-1], up_left[1:]
            c8 = d[s - 1, lo - 1:hi]
            c = c8.astype(np.int32)
            cur = d[s + 1, lo:hi + 1]
            cur += predictions.take(base[lo - 1:hi] + (a - c) * 511 + (b - c))
            cur += c8 * keep[lo - 1:hi]
        for k in range(1, n + 1):
            out[top + k - 1] = d[k + 1:k + 1 + w, k]
        above = out[top + n - 1]
    return out.reshape(height, stride)


def _read_png(path: str) -> tuple[np.ndarray, int]:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_PNG_SIGNATURE):
        raise DataError(f"{path}: not a PNG file (bad signature)")

    header, idat, pos = None, [], len(_PNG_SIGNATURE)
    while True:
        if pos + 12 > len(data):
            raise DataError(f"{path}: truncated PNG (no IEND chunk)")
        length, kind = struct.unpack_from(">I4s", data, pos)
        end = pos + 8 + length
        if end + 4 > len(data):
            raise DataError(f"{path}: truncated PNG {kind!r} chunk")
        (crc,) = struct.unpack_from(">I", data, end)
        if zlib.crc32(data[pos + 4:end]) != crc:
            raise DataError(f"{path}: bad CRC in PNG {kind!r} chunk")
        body, pos = data[pos + 8:end], end + 4
        if header is None and kind != b"IHDR":
            raise DataError(f"{path}: PNG does not start with an IHDR chunk")
        if kind == b"IHDR":
            if length != 13:
                raise DataError(f"{path}: malformed PNG IHDR chunk")
            header = struct.unpack(">IIBBBBB", body)
        elif kind == b"IDAT":
            idat.append(body)
        elif kind == b"IEND":
            break

    width, height, depth, colour, compression, filtering, interlace = header
    if width == 0 or height == 0 or compression or filtering:
        raise DataError(f"{path}: invalid PNG header {header}")
    variant = None
    if interlace:
        variant = "interlaced"
    elif colour == 3:
        variant = "palette"
    elif depth != 8:
        variant = f"{depth}-bit"
    elif colour not in _PNG_CHANNELS:
        variant = f"colour type {colour}"
    if variant:
        return _read_pillow(path, f"{variant} PNG")

    bpp = _PNG_CHANNELS[colour]
    stride = width * bpp
    expected = height * (stride + 1)
    try:
        # the length cap keeps a forged header or a zlib bomb from
        # allocating more than one byte past a well-formed image
        raw = zlib.decompressobj().decompress(
            b"".join(idat), min(expected + 1, sys.maxsize))
    except zlib.error as exc:
        raise DataError(f"{path}: corrupt PNG image data ({exc})") from exc
    if len(raw) != expected:
        raise DataError(f"{path}: PNG image data holds {len(raw)} bytes, "
                        f"expected {expected}")
    pixels = _png_unfilter(raw, height, stride, bpp).reshape(height, width, bpp)
    return (pixels[..., [0, 0, 0]] if bpp < 3 else pixels[..., :3]), 255


def load_image(path: str) -> np.ndarray:
    """Load an RGB image file as a (1, 3, H, W) float32 array in [0, 1]."""
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    ext = os.path.splitext(path)[1].lower()
    if ext in (".ppm", ".pnm"):
        pixels, maxval = _read_ppm(path)
    elif ext == ".png":
        pixels, maxval = _read_png(path)
    else:
        pixels, maxval = _read_pillow(path, _OTHER_FORMATS)
    img = np.ascontiguousarray(pixels.transpose(2, 0, 1)[None], dtype=np.float32)
    img /= maxval
    return img


def _to_hwc(image) -> np.ndarray:
    arr = np.asarray(image)
    if arr.ndim == 4:
        if arr.shape[0] != 1:
            raise DataError("can only save a single image, not a batch")
        arr = arr[0]
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise DataError(f"expected a (3, H, W) image, got shape {arr.shape}")
    return arr.transpose(1, 2, 0)


def _write_ppm(path: str, samples: np.ndarray) -> None:
    """Write (H, W, 3) uint8 samples as a binary PPM."""
    with open(path, "wb") as fh:
        fh.write(f"P6\n{samples.shape[1]} {samples.shape[0]}\n255\n".encode("ascii"))
        fh.write(samples.data)


def image_writer(path: str):
    """write(path, samples) for `path`'s format; raises DataError at once
    when the format needs Pillow and Pillow is not installed."""
    ext = os.path.splitext(path)[1].lower()
    if ext in (".ppm", ".pnm"):
        return _write_ppm
    if ext == ".png":
        return _write_png
    image_module = _pillow(path, _OTHER_FORMATS)
    return lambda out, samples: image_module.fromarray(samples).save(out)


def save_image(image, path: str) -> None:
    """Save a [0, 1] image at 8 bits per sample."""
    write = image_writer(path)
    hwc = _to_hwc(image)
    quantized = np.empty(hwc.shape, dtype=np.uint8)
    step = max(1, _STRIP_ELEMS // max(1, 3 * hwc.shape[1]))  # rows per float band
    for y in range(0, len(hwc), step):
        band = np.clip(hwc[y:y + step], 0.0, 1.0).astype(np.float64)
        band *= 255
        quantized[y:y + step] = np.rint(band, out=band)
    write(path, quantized)
