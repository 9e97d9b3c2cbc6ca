"""Haze-LUT: lattice coordinates, trilinear application, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazeflow.errors import ConfigError, LatticeRangeError
from hazeflow.gradcheck import check_gradients
from hazeflow.lut import (Lut3D, export_cube, fixed_contrast_saturation_lut,
                          identity_lut, lattice_coords, trilinear_apply)
from hazeflow.tensor import Tensor


def image(rng, shape=(1, 3, 8, 8), lo=0.0, hi=1.0, requires_grad=False):
    return Tensor(rng.uniform(lo, hi, shape).astype(np.float32),
                  requires_grad=requires_grad)


class TestLatticeCoords:
    def test_origin(self):
        lut = identity_lut(33)
        assert lattice_coords((0.0, 0.0, 0.0), lut) == (0.0, 0.0, 0.0)

    def test_half_maps_to_16_5(self):
        lut = identity_lut(33)
        x, y, z = lattice_coords((0.5, 0.5, 0.5), lut)
        assert x == pytest.approx(16.5)

    def test_top_clamps_to_m_minus_1(self):
        lut = identity_lut(33)
        x, _, _ = lattice_coords((1.0, 0.0, 0.0), lut)
        assert x == pytest.approx(32.0)

    def test_out_of_range_raises(self):
        lut = identity_lut(33)
        with pytest.raises(LatticeRangeError):
            lattice_coords((1.2, 0.0, 0.0), lut)
        with pytest.raises(LatticeRangeError):
            lattice_coords((-0.1, 0.0, 0.0), lut)


class TestIdentityLut:
    def test_m2_corners_are_unit_cube_vertices(self):
        lut = identity_lut(2)
        for i in (0, 1):
            for j in (0, 1):
                for k in (0, 1):
                    np.testing.assert_allclose(lut.grid.data[i, j, k],
                                               [i, j, k], atol=1e-7)

    def test_m33_entry_count(self):
        lut = identity_lut(33)
        assert lut.grid.data.shape == (33, 33, 33, 3)
        assert lut.grid.data[..., 0].size == 35937

    def test_m_below_2_rejected(self):
        with pytest.raises(ConfigError):
            identity_lut(1)

    def test_identity_property(self, rng):
        lut = identity_lut(33)
        x = image(rng)
        out = trilinear_apply(x, lut)
        assert np.abs(out.data - x.data).max() < 1e-6


class TestTrilinearApply:
    def test_constant_grid(self, rng):
        grid = np.full((5, 5, 5, 3), 0.42, dtype=np.float32)
        lut = Lut3D(grid)
        out = trilinear_apply(image(rng), lut)
        np.testing.assert_allclose(out.data, 0.42, atol=1e-6)

    def test_half_identity_lattice(self):
        lut = identity_lut(33)
        lut.grid.data = lut.grid.data * 0.5
        x = Tensor(np.array([0.4, 0.6, 0.8], dtype=np.float32)
                   .reshape(1, 3, 1, 1))
        out = trilinear_apply(x, lut)
        np.testing.assert_allclose(out.data.reshape(3), [0.2, 0.3, 0.4],
                                   atol=1e-6)

    def test_rejects_out_of_range_image(self, rng):
        lut = identity_lut(9)
        with pytest.raises(LatticeRangeError):
            trilinear_apply(image(rng, lo=0.5, hi=1.5), lut)

    def test_rejects_nan_image(self, rng):
        x = image(rng)
        x.data[0, 2, 5, 1] = np.nan
        with pytest.raises(LatticeRangeError):
            trilinear_apply(x, identity_lut(9))

    def test_locality_of_grid_perturbation(self):
        m = 5
        lut = identity_lut(m)
        # probe one pixel per cell interior
        centers = (np.arange(m - 1) + 0.5) / (m - 1)
        grid_pts = np.stack(np.meshgrid(centers, centers, centers,
                                        indexing="ij"), axis=0)
        x = Tensor(grid_pts.reshape(1, 3, (m - 1) ** 2, m - 1)
                   .astype(np.float32))
        base = trilinear_apply(x, lut).data.copy()
        lut.grid.data[2, 2, 2] += 0.25
        bumped = trilinear_apply(x, lut).data
        changed = np.any(np.abs(bumped - base) > 1e-9, axis=1).reshape(-1)
        coords = grid_pts.reshape(3, -1).T * (m - 1)
        touches = np.all((coords >= 1.0) & (coords <= 3.0), axis=1)
        np.testing.assert_array_equal(changed, touches)

    def test_gradients_match_finite_differences(self, rng):
        def check(lut, x):
            r = image(rng, x.shape, lo=-1.0, hi=1.0)

            def loss():
                return (trilinear_apply(x, lut) * r).mean()

            ratios = check_gradients(loss, [x, lut.grid], h=1e-3,
                                     rtol=1e-3, atol=1e-4)
            assert max(ratios.values()) <= 1.0

        check(identity_lut(5),
              image(rng, (1, 3, 4, 4), lo=0.05, hi=0.95, requires_grad=True))
        # a random lattice, whose output channels differ, on a batch of 2;
        # pixels stay 5% of a cell away from the cell faces, where the
        # interpolant has kinks that central differences straddle
        grid = rng.uniform(0.0, 1.0, (5, 5, 5, 3)).astype(np.float32)
        pos = rng.integers(0, 4, (2, 3, 4, 4)) + rng.uniform(0.05, 0.95, (2, 3, 4, 4))
        check(Lut3D(grid), Tensor((pos / 4).astype(np.float32), requires_grad=True))

    def test_matches_channels_last_reference_bit_for_bit(self, rng):
        # reference: each corner's (B, H, W, 3) values gathered channels
        # last, weighted and summed in the same corner order
        m = 7
        grid = rng.uniform(0.0, 1.0, (m, m, m, 3)).astype(np.float32)
        x = rng.uniform(0.0, 1.0, (2, 3, 9, 5)).astype(np.float32)
        x[0, :, 0, 0] = 0.0
        x[0, :, 0, 1] = 1.0  # c_max: the top of the top cell
        x[1, :, 2, 3] = np.float32(5.5 / 6)  # inside the top cell
        x[1, 0, 4, 4], x[1, 1, 4, 4], x[1, 2, 4, 4] = 0.0, 1.0, 0.5
        pos = np.clip(x.astype(np.float64) * (m - 1), 0.0, m - 1)
        cell = np.minimum(pos.astype(np.int64), m - 2)
        frac = (pos - cell).astype(np.float32)
        flat = grid.reshape(-1, 3)
        ref = None
        for di in (0, 1):
            wr = frac[:, 0] if di else 1.0 - frac[:, 0]
            for dj in (0, 1):
                wg = frac[:, 1] if dj else 1.0 - frac[:, 1]
                for dk in (0, 1):
                    wb = frac[:, 2] if dk else 1.0 - frac[:, 2]
                    lin = ((cell[:, 0] + di) * m + cell[:, 1] + dj) * m \
                        + cell[:, 2] + dk
                    term = (wr * wg * wb)[..., None] * flat[lin]
                    ref = term if ref is None else ref + term
        out = trilinear_apply(Tensor(x), Lut3D(grid)).data
        assert out.dtype == np.float32
        assert np.array_equal(out, np.moveaxis(ref, 3, 1))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_lattice_convex_bound(self, seed):
        rng = np.random.default_rng(seed)
        lut = identity_lut(7)
        lut.grid.data = (lut.grid.data * rng.uniform(0.3, 1.5)
                         + rng.uniform(-0.2, 0.2)).astype(np.float32)
        out = trilinear_apply(image(rng, (1, 3, 5, 5)), lut).data
        assert out.min() >= lut.grid.data.min() - 1e-6
        assert out.max() <= lut.grid.data.max() + 1e-6


class TestFixedLut:
    def test_neutral_parameters_give_identity(self):
        fixed = fixed_contrast_saturation_lut(9, alpha=1.0, beta=1.0)
        ident = identity_lut(9)
        np.testing.assert_allclose(fixed.grid.data, ident.grid.data, atol=1e-7)

    def test_gray_axis_fixed_under_saturation(self):
        # saturation step alone: gray entries stay put for any beta
        fixed = fixed_contrast_saturation_lut(5, alpha=1.0, beta=3.0)
        ident = identity_lut(5)
        for i in range(5):
            np.testing.assert_allclose(fixed.grid.data[i, i, i],
                                       ident.grid.data[i, i, i], atol=1e-6)

    def test_contrast_step_at_0_75(self):
        # M=5 puts a lattice entry exactly at 0.75; beta=1 isolates contrast
        fixed = fixed_contrast_saturation_lut(5, alpha=1.2, beta=1.0)
        assert fixed.grid.data[3, 3, 3][0] == pytest.approx(0.8, abs=1e-6)

    def test_grid_not_trainable(self):
        fixed = fixed_contrast_saturation_lut(5)
        assert not fixed.grid.requires_grad


def test_export_cube_b_fastest(tmp_path):
    lut = identity_lut(3)
    path = tmp_path / "table.cube"
    export_cube(lut, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "LUT_3D_SIZE 3"
    assert len(lines) == 1 + 27
    # second data line must be (0, 0, s): blue index varies fastest
    first = np.array(lines[1].split(), dtype=float)
    second = np.array(lines[2].split(), dtype=float)
    np.testing.assert_allclose(first, [0.0, 0.0, 0.0], atol=1e-8)
    np.testing.assert_allclose(second, [0.0, 0.0, 0.5], atol=1e-8)
