import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqguide import frequency
from freqguide import (
    ShapeError,
    Tensor4,
    TransformKind,
    inverse_bands,
    transform_bands,
)
from freqguide.frequency import BLUR_KERNEL, low_pass_chain, max_pyramid_levels, up_step

rng = np.random.default_rng(11)


def rand(dims, lo=-3.0, hi=3.0):
    return Tensor4(rng.uniform(lo, hi, dims))


def reflect_pad_2d(img, pad):
    return np.pad(img, pad, mode="reflect")


def direct_conv2d_oracle(img, kernel2d):
    """Naive reflect-padded 2-D convolution, one multiply at a time."""
    kh, kw = kernel2d.shape
    ph, pw = kh // 2, kw // 2
    padded = reflect_pad_2d(img, ((ph, ph), (pw, pw)))
    out = np.zeros_like(img)
    h, w = img.shape
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    acc += kernel2d[i, j] * padded[y + i, x + j]
            out[y, x] = acc
    return out


KERNEL_2D = np.outer(BLUR_KERNEL, BLUR_KERNEL)


def gaussian_blur(x):
    """The engine's separable blur, B_h @ x @ B_wᵀ, on a raw array."""
    h, w = x.shape[2:]
    return frequency._blur_matrix(h) @ x @ frequency._blur_matrix(w).T


def down(x):
    """The pyramid's down step D on a raw array, as ``low_pass_chain`` runs it."""
    return low_pass_chain(x, TransformKind.pyramid(1))[1]


def up(x, target_hw):
    """The pyramid's up step U on a raw array."""
    return up_step(x, target_hw, TransformKind.pyramid(1))


def pyramid(x, levels):
    """(detail bands fine to coarse, residual) of a ``levels``-level pyramid."""
    *bands, residual = transform_bands(x, TransformKind.pyramid(levels))
    return bands, residual


def reconstruct(bands, residual):
    return inverse_bands(list(bands) + [residual], TransformKind.pyramid(len(bands)))


def haar_subbands(x):
    """(ll, lh, hl, hh) sliced from the channel-stacked Haar detail band."""
    details, ll = transform_bands(x, TransformKind.haar())
    lh, hl, hh = np.split(details.data, 3, axis=1)
    return ll.data, lh, hl, hh


class TestGaussianBlur:
    def test_constant_preserved(self):
        out = gaussian_blur(np.full((1, 2, 9, 9), 3.25))
        assert np.abs(out - 3.25).max() == 0.0
        # oracle agrees: kernel sums to 1 under reflect padding
        oracle = direct_conv2d_oracle(np.full((9, 9), 3.25), KERNEL_2D)
        assert np.abs(oracle - 3.25).max() < 1e-15

    def test_centered_impulse_is_kernel_outer_product(self):
        img = np.zeros((1, 1, 9, 9))
        img[0, 0, 4, 4] = 1.0
        out = gaussian_blur(img)[0, 0]
        expected = np.zeros((9, 9))
        expected[2:7, 2:7] = KERNEL_2D
        assert np.abs(out - expected).max() < 1e-16

    def test_matches_direct_convolution_oracle(self):
        x = rng.uniform(-2, 2, (7, 11))
        got = gaussian_blur(x[None, None])[0, 0]
        assert np.abs(got - direct_conv2d_oracle(x, KERNEL_2D)).max() < 1e-14

    def test_linearity(self):
        a, b = rand((1, 1, 8, 8)).data, rand((1, 1, 8, 8)).data
        lhs = gaussian_blur(a + b)
        rhs = gaussian_blur(a) + gaussian_blur(b)
        assert np.abs(lhs - rhs).max() < 1e-13


class TestPyrDown:
    def test_constant(self):
        out = down(np.full((1, 1, 8, 8), 1.5))
        assert out.shape == (1, 1, 4, 4)
        assert np.abs(out - 1.5).max() == 0.0

    def test_shape_contract(self):
        assert down(rand((2, 3, 16, 16)).data).shape == (2, 3, 8, 8)
        assert down(rand((1, 1, 15, 17)).data).shape == (1, 1, 8, 9)

    def test_linearity(self):
        a, b = rand((1, 2, 12, 12)).data, rand((1, 2, 12, 12)).data
        lhs = down(2.0 * a - b)
        rhs = 2.0 * down(a) - down(b)
        assert np.abs(lhs - rhs).max() < 1e-13

    def test_too_small(self):
        with pytest.raises(ShapeError):
            down(rand((1, 1, 7, 8)).data)


class TestPyrUp:
    def test_constant(self):
        c = up(np.full((1, 1, 4, 4), 2.5), (8, 8))
        assert c.shape == (1, 1, 8, 8)
        assert np.abs(c - 2.5).max() < 1e-15

    def test_shape_contract(self):
        assert up(rand((1, 1, 4, 4)).data, (8, 8)).shape == (1, 1, 8, 8)
        assert up(rand((1, 1, 8, 9)).data, (15, 17)).shape == (1, 1, 15, 17)

    def test_invalid_target(self):
        with pytest.raises(ShapeError):
            up(rand((1, 1, 4, 4)).data, (9, 8))

    def test_linearity(self):
        a, b = rand((1, 1, 5, 5)).data, rand((1, 1, 5, 5)).data
        lhs = up(a + b, (10, 10))
        rhs = up(a, (10, 10)) + up(b, (10, 10))
        assert np.abs(lhs - rhs).max() < 1e-13


class TestLaplacianPyramid:
    def test_single_level_definition_unrolled(self):
        x = rand((1, 2, 16, 16))
        bands, residual = pyramid(x, 1)
        g1 = down(x.data)
        expected_band = x.data - up(g1, (16, 16))
        assert np.abs(bands[0].data - expected_band).max() == 0.0
        assert np.array_equal(residual.data, g1)

    def test_constant_image_concentrates_in_residual(self):
        bands, residual = pyramid(Tensor4(np.full((1, 1, 32, 32), -4.0)), 2)
        for band in bands:
            assert np.abs(band.data).max() < 1e-12
        assert np.abs(residual.data + 4.0).max() < 1e-12

    def test_linearity_bandwise(self):
        a, b = rand((1, 1, 32, 32)), rand((1, 1, 32, 32))
        kind = TransformKind.pyramid(2)
        pa, pb = transform_bands(a, kind), transform_bands(b, kind)
        pab = transform_bands(Tensor4(a.data + b.data), kind)
        for band_ab, band_a, band_b in zip(pab, pa, pb):
            assert np.abs(band_ab.data - band_a.data - band_b.data).max() < 1e-12

    @pytest.mark.parametrize("size", [32, 48, 64])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_perfect_reconstruction(self, size, levels):
        x = rand((1, 3, size, size), lo=-10.0, hi=10.0)
        rec = reconstruct(*pyramid(x, levels))
        assert np.abs(rec.data - x.data).max() < 1e-9

    def test_reconstruct_zero_bands_is_up_chain(self):
        bands, residual = pyramid(rand((1, 1, 32, 32)), 2)
        rec = reconstruct([Tensor4(np.zeros(b.dims)) for b in bands], residual)
        chain = up(up(residual.data, (16, 16)), (32, 32))
        assert np.abs(rec.data - chain).max() < 1e-12

    def test_reconstruct_linear(self):
        x, y = rand((1, 1, 32, 32)), rand((1, 1, 32, 32))
        (bx, rx), (by, ry) = pyramid(x, 2), pyramid(y, 2)
        summed = reconstruct(
            [Tensor4(a.data + b.data) for a, b in zip(bx, by)], Tensor4(rx.data + ry.data)
        )
        rhs = reconstruct(bx, rx).data + reconstruct(by, ry).data
        assert np.abs(summed.data - rhs).max() < 1e-12

    def test_too_many_levels_lists_max(self):
        with pytest.raises(ShapeError, match="max feasible is 3"):
            pyramid(rand((1, 1, 32, 32)), 4)
        assert max_pyramid_levels(32, 32) == 3
        assert max_pyramid_levels(64, 64) == 4


class TestHaar:
    def test_constant_2x2_block_oracle(self):
        # stated filters as an explicit 4x4 orthogonal matrix on (a, b, c, d)
        c = 1.3
        block = np.array([c, c, c, c])
        mat = 0.5 * np.array(
            [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
        )
        ll, lh, hl, hh = mat @ block
        assert ll == pytest.approx(2 * c)
        got_ll, *details = haar_subbands(Tensor4(np.full((1, 1, 2, 2), c)))
        assert got_ll.item() == pytest.approx(2 * c)
        for band in details:
            assert abs(band.item()) < 1e-15

    def test_matches_matrix_oracle_on_random_input(self):
        x = rng.uniform(-3, 3, (1, 1, 6, 8))
        ll, lh, hl, hh = haar_subbands(Tensor4(x))
        for i in range(3):
            for j in range(4):
                a, b = x[0, 0, 2 * i, 2 * j], x[0, 0, 2 * i, 2 * j + 1]
                c, d = x[0, 0, 2 * i + 1, 2 * j], x[0, 0, 2 * i + 1, 2 * j + 1]
                assert ll[0, 0, i, j] == pytest.approx((a + b + c + d) / 2, abs=1e-14)
                assert lh[0, 0, i, j] == pytest.approx((a - b + c - d) / 2, abs=1e-14)
                assert hl[0, 0, i, j] == pytest.approx((a + b - c - d) / 2, abs=1e-14)
                assert hh[0, 0, i, j] == pytest.approx((a - b - c + d) / 2, abs=1e-14)

    @pytest.mark.parametrize("size", [32, 48, 64])
    def test_inverse(self, size):
        x = rand((2, 3, size, size), lo=-10.0, hi=10.0)
        rec = inverse_bands(transform_bands(x, TransformKind.haar()), TransformKind.haar())
        assert np.abs(rec.data - x.data).max() < 1e-9

    def test_energy_identity(self):
        x = rand((1, 2, 16, 16))
        e_in = np.sum(x.data**2)
        e_out = sum(np.sum(band**2) for band in haar_subbands(x))
        assert abs(e_in - e_out) < 1e-9 * e_in

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            transform_bands(rand((1, 1, 5, 6)), TransformKind.haar())

    def test_inconsistent_band_dims_rejected(self):
        details, ll = transform_bands(rand((1, 1, 4, 4)), TransformKind.haar())
        with pytest.raises(ShapeError):
            inverse_bands([Tensor4(details.data[:, :, :, :1]), ll], TransformKind.haar())


class TestBandSeparation:
    def test_smooth_blob_energy_stays_low(self):
        yy, xx = np.mgrid[0:64, 0:64].astype(float)
        blob = np.exp(-((yy - 32) ** 2 + (xx - 32) ** 2) / (2 * 8.0**2))
        bands, residual = pyramid(Tensor4(blob[None, None]), 2)
        total = sum(np.sum(b.data**2) for b in bands) + np.sum(residual.data**2)
        deep = np.sum(bands[-1].data ** 2) + np.sum(residual.data**2)
        assert deep / total >= 0.9

    def test_checkerboard_energy_is_high_band(self):
        yy, xx = np.mgrid[0:64, 0:64]
        checker = ((-1.0) ** (yy + xx)).astype(float)
        bands, residual = pyramid(Tensor4(checker[None, None]), 2)
        total = sum(np.sum(b.data**2) for b in bands) + np.sum(residual.data**2)
        assert np.sum(bands[0].data ** 2) / total >= 0.9


class TestTransformBands:
    @pytest.mark.parametrize(
        "kind",
        [TransformKind.pyramid(1), TransformKind.pyramid(3), TransformKind.haar()],
    )
    def test_round_trip(self, kind):
        x = rand((2, 3, 32, 32), lo=-10.0, hi=10.0)
        bands = transform_bands(x, kind)
        assert len(bands) == kind.band_count
        rec = inverse_bands(bands, kind)
        assert np.abs(rec.data - x.data).max() < 1e-9

    def test_haar_details_stacked_along_channels(self):
        x = rand((1, 3, 8, 8))
        details, ll = transform_bands(x, TransformKind.haar())
        # the 2x2 block formulas on strided views: a b / c d
        a, b = x.data[..., 0::2, 0::2], x.data[..., 0::2, 1::2]
        c, d = x.data[..., 1::2, 0::2], x.data[..., 1::2, 1::2]
        assert details.dims == (1, 9, 4, 4)
        assert np.abs(details.data[:, 0:3] - (a - b + c - d) / 2).max() < 1e-14
        assert np.abs(details.data[:, 3:6] - (a + b - c - d) / 2).max() < 1e-14
        assert np.abs(details.data[:, 6:9] - (a - b - c + d) / 2).max() < 1e-14
        assert np.abs(ll.data - (a + b + c + d) / 2).max() < 1e-14

    def test_band_count_validation(self):
        x = rand((1, 1, 16, 16))
        bands = transform_bands(x, TransformKind.pyramid(2))
        with pytest.raises(ShapeError):
            inverse_bands(bands, TransformKind.pyramid(1))


def loop_blur_1d(v):
    """Literal reference: reflect-pad by 2, then sum the 5 taps one at a time."""
    padded = np.pad(v, 2, mode="reflect")
    return np.array([sum(BLUR_KERNEL[j] * padded[i + j] for j in range(5)) for i in range(len(v))])


def loop_down_1d(v):
    return loop_blur_1d(v)[::2]


def loop_up_1d(v, n):
    """Zero-stuff to twice the length, blur with gain 2, crop to n."""
    stuffed = np.zeros(2 * len(v))
    stuffed[::2] = v
    return 2.0 * loop_blur_1d(stuffed)[:n]


def operator_matrix(fn, m):
    """Matrix of a linear map on length-m signals, built one unit vector at a time."""
    return np.stack([fn(e) for e in np.eye(m)], axis=1)


def loop_2d(img, fn_h, fn_w):
    rows = np.stack([fn_w(r) for r in img])
    return np.stack([fn_h(c) for c in rows.T], axis=1)


class TestEngineMatrices:
    @pytest.mark.parametrize("n", [5, 6, 8, 9, 15, 16, 17, 32])
    def test_blur_and_down_match_loop_reference(self, n):
        assert np.array_equal(frequency._blur_matrix(n), operator_matrix(loop_blur_1d, n))
        assert np.array_equal(frequency._down_matrix(n), operator_matrix(loop_down_1d, n))

    @pytest.mark.parametrize("m", [3, 4, 8, 9, 16])
    @pytest.mark.parametrize("odd", [False, True])
    def test_up_matches_loop_reference_including_crop(self, m, odd):
        n = 2 * m - odd
        reference = operator_matrix(lambda v: loop_up_1d(v, n), m)
        assert np.array_equal(frequency._up_matrix(n, m), reference)

    def test_matrices_cached_and_read_only(self):
        for build, args in ((frequency._blur_matrix, (9,)), (frequency._up_matrix, (17, 9))):
            mat = build(*args)
            assert build(*args) is mat
            with pytest.raises(ValueError):
                mat[0, 0] = 1.0

    def test_odd_image_down_and_up_match_loop_reference(self):
        img = rng.uniform(-2, 2, (15, 17))
        g1 = down(img[None, None])[0, 0]
        assert np.abs(g1 - loop_2d(img, loop_down_1d, loop_down_1d)).max() < 1e-14
        u = up(g1[None, None], (15, 17))[0, 0]
        expected = loop_2d(g1, lambda v: loop_up_1d(v, 15), lambda v: loop_up_1d(v, 17))
        assert np.abs(u - expected).max() < 1e-14


@st.composite
def transform_cases(draw):
    """(kind, dims, seed) with sizes the kind accepts, odd pyramid sizes included."""
    if draw(st.booleans()):
        kind = TransformKind.haar()
        h, w = (2 * draw(st.integers(1, 20)) for _ in range(2))
    else:
        kind = TransformKind.pyramid(draw(st.integers(1, 3)))
        side = 4 * 2**kind.levels
        h, w = (draw(st.integers(side, side + 9)) for _ in range(2))
    dims = (draw(st.integers(1, 2)), draw(st.integers(1, 3)), h, w)
    return kind, dims, draw(st.integers(0, 2**32 - 1))


class TestEngineProperties:
    @settings(max_examples=40, deadline=None)
    @given(transform_cases())
    def test_perfect_reconstruction(self, case):
        kind, dims, seed = case
        x = np.random.default_rng(seed).uniform(-10, 10, dims)
        rec = inverse_bands(transform_bands(Tensor4(x), kind), kind)
        assert np.abs(rec.data - x).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(transform_cases(), st.floats(-4, 4), st.floats(-4, 4))
    def test_linearity(self, case, a, b):
        kind, dims, seed = case
        gen = np.random.default_rng(seed)
        x, y = gen.uniform(-10, 10, dims), gen.uniform(-10, 10, dims)
        mixed = transform_bands(Tensor4(a * x + b * y), kind)
        parts = zip(transform_bands(Tensor4(x), kind), transform_bands(Tensor4(y), kind))
        for band, (bx, by) in zip(mixed, parts):
            assert np.abs(band.data - (a * bx.data + b * by.data)).max() < 1e-12
