"""Tile planning, blend-weight partition of unity, tiled dehazing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazeflow.flow import FlowConfig, integrate
from hazeflow.lut import identity_lut
from hazeflow.purifier import PurifierNet
from hazeflow.tensor import Tensor, no_grad
from hazeflow.tiling import (TilePlan, _tile_weights, blend_weight_maps,
                             dehaze, process_tiled, tile_spans)


def per_pixel_net(width=4):
    """Zero weights make the vector field purely per-pixel (K == x)."""
    net = PurifierNet(width=width, seed=0)
    for name, p in net.parameters().items():
        if name != "b":
            p.data = np.zeros_like(p.data)
    return net


class TestSpans:
    def test_single_span_when_image_fits(self):
        assert tile_spans(100, TilePlan(tile=128, overlap=16)) == [(0, 100)]

    def test_spans_cover_and_overlap(self):
        plan = TilePlan(tile=64, overlap=16)
        spans = tile_spans(200, plan)
        assert spans[0][0] == 0 and spans[-1][1] == 200
        covered = np.zeros(200, dtype=bool)
        for a, b in spans:
            assert b - a == 64
            covered[a:b] = True
        assert covered.all()
        for (a0, b0), (a1, b1) in zip(spans, spans[1:]):
            assert a1 < b0  # consecutive tiles overlap

    @settings(max_examples=40, deadline=None)
    @given(length=st.integers(10, 400), tile=st.integers(8, 128),
           overlap=st.integers(0, 32))
    def test_random_plans_cover(self, length, tile, overlap):
        if overlap >= tile:
            overlap = tile - 1
        spans = tile_spans(length, TilePlan(tile=tile, overlap=overlap))
        covered = np.zeros(length, dtype=bool)
        for a, b in spans:
            covered[a:b] = True
            assert 0 <= a < b <= length
        assert covered.all()


class TestBlendWeights:
    @pytest.mark.parametrize("h,w,tile,overlap", [
        (100, 100, 40, 8), (64, 130, 32, 16), (37, 53, 16, 4),
        (200, 200, 64, 0),
    ])
    def test_weights_sum_to_one(self, h, w, tile, overlap):
        maps = blend_weight_maps(h, w, TilePlan(tile=tile, overlap=overlap))
        acc = np.zeros((h, w))
        for (y0, y1), (x0, x1), wmap in maps:
            assert wmap.min() >= 0.0
            acc[y0:y1, x0:x1] += wmap
        np.testing.assert_allclose(acc, 1.0, atol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(h=st.integers(20, 150), w=st.integers(20, 150),
           tile=st.integers(10, 64), overlap=st.integers(0, 9))
    def test_weights_sum_to_one_random(self, h, w, tile, overlap):
        maps = blend_weight_maps(h, w, TilePlan(tile=tile, overlap=overlap))
        acc = np.zeros((h, w))
        for (y0, y1), (x0, x1), wmap in maps:
            acc[y0:y1, x0:x1] += wmap
        np.testing.assert_allclose(acc, 1.0, atol=1e-6)


def whole_image_blend(data, fn, plan):
    """Reference: accumulate every tile over the whole image, then divide."""
    _, _, h, w = data.shape
    if h <= plan.tile and w <= plan.tile:
        return fn(data)
    out = np.zeros_like(data, dtype=np.float64)
    acc = np.zeros((h, w), dtype=np.float64)
    for (y0, y1), (x0, x1), wmap in _tile_weights(h, w, plan):
        result = fn(np.ascontiguousarray(data[:, :, y0:y1, x0:x1]))
        out[:, :, y0:y1, x0:x1] += result * wmap
        acc[y0:y1, x0:x1] += wmap
    out /= acc
    return out.astype(data.dtype)


def tile_dependent(tile):
    # differs between overlapping tiles, so every blend weight shows
    return (np.sin(3 * tile) + tile.mean(axis=(2, 3), keepdims=True)).astype(tile.dtype)


class TestStreamedBlend:
    """process_tiled keeps sums for one tile row; the bits must not change."""

    def check(self, n, h, w, tile, overlap, seed=0):
        x = np.random.default_rng(seed).uniform(0, 1, (n, 3, h, w)).astype(np.float32)
        plan = TilePlan(tile=tile, overlap=overlap)
        got = process_tiled(x, tile_dependent, plan)
        want = whole_image_blend(x, tile_dependent, plan)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2]), h=st.integers(1, 120), w=st.integers(1, 120),
           tile=st.integers(2, 64), overlap=st.integers(0, 63), seed=st.integers(0, 99))
    def test_random_plans(self, n, h, w, tile, overlap, seed):
        self.check(n, h, w, tile, min(overlap, tile - 1), seed)

    @pytest.mark.parametrize("n,h,w,tile,overlap", [
        (1, 100, 70, 32, 0),     # overlap 0: tile rows share no band
        (2, 40, 150, 64, 8),     # tile >= H, W > tile: one tile row
        (1, 720, 40, 256, 32),   # last row span overlaps its neighbour by 240
        (2, 97, 40, 32, 31),     # a stride of one pixel
    ])
    def test_edge_plans(self, n, h, w, tile, overlap):
        self.check(n, h, w, tile, overlap)


class TestDehazeTiled:
    def test_single_tile_bit_identical_to_untiled(self, rng):
        net = PurifierNet(width=4, seed=2)
        lut = identity_lut(5)
        cfg = FlowConfig(solver="euler", steps=2)
        img = rng.uniform(0, 1, (1, 3, 40, 48)).astype(np.float32)
        plan = TilePlan(tile=64, overlap=8)
        tiled = dehaze(img, net, lut, cfg, plan)
        with no_grad():
            untiled = integrate(Tensor(img), net, lut, cfg).output.data
        np.testing.assert_array_equal(tiled, untiled)

    @pytest.mark.parametrize("tile,overlap", [(32, 8), (17, 5), (64, 16)])
    def test_zero_field_is_identity_under_any_tiling(self, rng, tile, overlap):
        # zero vector field: each tile maps to itself, so the blended
        # output must reproduce the input
        from hazeflow.flow import FlowConfig, integrate_field

        cfg = FlowConfig(solver="rk4", steps=3)
        img = rng.uniform(0, 1, (1, 3, 70, 90)).astype(np.float32)

        def zero_flow(tile_data):
            final, _ = integrate_field(Tensor(tile_data),
                                       lambda t, x: x * 0.0, cfg)
            return final.clamp(0.0, 1.0).data

        out = process_tiled(img, zero_flow, TilePlan(tile=tile, overlap=overlap))
        np.testing.assert_allclose(out, img, atol=1e-6)

    def test_tiled_equals_untiled_for_per_pixel_field(self, rng):
        # smooth synthetic image, zero-weight purifier + identity LUT:
        # the field is per-pixel, so tiling differences come only from
        # blending arithmetic
        net = per_pixel_net()
        lut = identity_lut(9)
        cfg = FlowConfig(solver="rk4", steps=2, lam=0.5)
        yy, xx = np.mgrid[0:80, 0:100] / 100.0
        img = np.stack([0.3 + 0.4 * xx, 0.2 + 0.5 * yy,
                        0.4 + 0.2 * np.sin(xx * 6)], axis=0)[None]
        img = img.astype(np.float32)
        plan = TilePlan(tile=32, overlap=8)
        tiled = dehaze(img, net, lut, cfg, plan)
        with no_grad():
            untiled = integrate(Tensor(img), net, lut, cfg).output.data
        assert np.abs(tiled - untiled).max() < 1e-4

    def test_trajectory_ends_in_the_output(self, rng):
        net = PurifierNet(width=4, seed=2)
        img = rng.uniform(0, 1, (1, 3, 50, 70)).astype(np.float32)
        cfg = FlowConfig(solver="midpoint", steps=3)
        plan = TilePlan(tile=32, overlap=8)
        frames = dehaze(img, net, identity_lut(5), cfg, plan, trajectory=True)
        assert frames.shape == (3, 3, 50, 70)
        assert np.array_equal(frames[-1:], dehaze(img, net, identity_lut(5), cfg, plan))

    def test_output_dtype_and_shape(self, rng):
        net = per_pixel_net()
        img = rng.uniform(0, 1, (1, 3, 50, 70)).astype(np.float32)
        cfg = FlowConfig(solver="euler", steps=1, lam=0.0)
        out = dehaze(img, net, None, cfg, TilePlan(tile=32, overlap=8))
        assert out.shape == img.shape
        assert out.dtype == np.float32


@pytest.mark.parametrize("h,w,tile,overlap", [
    (30, 40, 64, 8),     # one tile: fn's result is returned as is
    (100, 70, 32, 8),
    (2, 97, 40, 32),     # a stride of one pixel
])
def test_several_images_per_tile_blend_like_one(h, w, tile, overlap):
    # fn returns K = 3 images per tile; each must blend exactly as the
    # one-image fn that makes it alone
    x = np.random.default_rng(1).uniform(0, 1, (1, 3, h, w)).astype(np.float32)
    plan = TilePlan(tile=tile, overlap=overlap)
    got = process_tiled(
        x, lambda t: np.concatenate([tile_dependent(t + k) for k in range(3)]), plan)
    assert got.shape == (3, 3, h, w)
    for k in range(3):
        want = process_tiled(x, lambda t: tile_dependent(t + k), plan)
        assert np.array_equal(got[k:k + 1], want)


def test_plan_validation():
    with pytest.raises(ValueError):
        TilePlan(tile=16, overlap=16)
    with pytest.raises(ValueError):
        TilePlan(tile=0, overlap=0)


def test_process_tiled_working_set():
    # tracemalloc peak of blending a 3x720x1280 float32 image in tiles of 256
    # (overlap 32) with an identity fn: 39.9 MiB with whole-image float64 sums
    # and weight sum, 28.8 MiB with sums for one tile row (10.5 MiB of it is
    # the output)
    x = np.random.default_rng(0).uniform(0, 1, (1, 3, 720, 1280)).astype(np.float32)
    tracemalloc.start()
    try:
        out = process_tiled(x, lambda tile: tile, TilePlan(tile=256, overlap=32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == x.shape
    assert peak < 34 * 2**20


def test_dehaze_512_working_set():
    # tracemalloc peak of one untiled 512x512 inference at Euler x1: 70.0 MiB
    # when each conv padded a copy of its input and the conv output lived
    # through its GELU, 54.0 MiB with every activation held once
    x = np.random.default_rng(0).uniform(0, 1, (1, 3, 512, 512)).astype(np.float32)
    net, lut = PurifierNet(width=16, seed=0), identity_lut(33)
    tracemalloc.start()
    try:
        out = dehaze(x, net, lut, FlowConfig("euler", 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == x.shape
    assert peak < 62 * 2**20
