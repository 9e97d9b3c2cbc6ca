"""Seeded synthetic inputs and a minimal binary PPM codec.

Every image is a mosaic of independent hazy/clean patches, each built by
hazeflow's own synthetic-haze recipe (procedural clean patch, random
airlight, constant or smooth transmission). Averaging quality over many
patches keeps PSNR/SSIM steady from seed to seed.
"""

from __future__ import annotations

import numpy as np


WARM_UP = 2**32  # input index of the warm-up operation; timed ones count from 0


def make_pair(seed: int, index: int, height: int, width: int, patch: int):
    """(hazy uint8 (H, W, 3), clean float32 (3, H, W)) for input `index`."""
    from hazeflow.training import make_clean_image, make_transmission, synth_haze

    rng = np.random.default_rng([seed % 2**63, index, height, width])
    clean = np.empty((3, height, width), dtype=np.float32)
    hazy = np.empty_like(clean)
    for y0 in range(0, height, patch):
        for x0 in range(0, width, patch):
            ph, pw = min(patch, height - y0), min(patch, width - x0)
            c = make_clean_image(rng, patch)
            a = float(rng.uniform(0.7, 1.0))
            h = synth_haze(c, a, make_transmission(rng, patch))
            clean[:, y0:y0 + ph, x0:x0 + pw] = c[:, :ph, :pw]
            hazy[:, y0:y0 + ph, x0:x0 + pw] = h[:, :ph, :pw]
    hazy_u8 = np.rint(hazy.transpose(1, 2, 0) * 255.0).astype(np.uint8)
    return hazy_u8, clean


def make_batch(seed: int, index: int, batch: int, size: int, patch: int):
    """(hazy, clean) float32 (B, 3, size, size) training batch `index`."""
    pairs = [make_pair(seed, index * batch + i, size, size, patch)
             for i in range(batch)]
    hazy = np.stack([h.transpose(2, 0, 1) for h, _ in pairs]) / np.float32(255.0)
    clean = np.stack([c for _, c in pairs])
    return hazy.astype(np.float32), clean


def write_ppm(path: str, rgb: np.ndarray) -> None:
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(rgb, dtype=np.uint8).tobytes())


def read_ppm(path: str) -> np.ndarray:
    """8-bit binary PPM as (H, W, 3) uint8; header without comments."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = data.split(maxsplit=4)
    if len(fields) < 5 or fields[0] != b"P6" or fields[3] != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PPM")
    w, h = int(fields[1]), int(fields[2])
    if len(data) < 3 * w * h + 11:
        raise ValueError(f"{path}: truncated pixel data")
    pixels = data[len(data) - 3 * w * h:]
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)
