import numpy as np
import pytest

from freqguide import (
    IsotropicGaussianMixture,
    Tensor4,
    TransformKind,
    UsageError,
    band_energy_fraction,
    default_tau,
    transform_bands,
    mode_report,
    saturation_proxy,
)

rng = np.random.default_rng(77)

SHAPE = (2, 4, 4)


def four_mode_mix():
    means = np.stack([np.full(SHAPE, v) for v in (0.0, 10.0, 20.0, 30.0)])
    return IsotropicGaussianMixture(
        weights=np.full(4, 0.25), means=means, scales=np.full(4, 0.05)
    )


class TestModeReport:
    def test_samples_at_every_mean(self):
        mix = four_mode_mix()
        report = mode_report(Tensor4(mix.means.copy()), mix, tau=1.0)
        assert report.recall == 1.0
        assert report.precision == 1.0
        assert report.counts == (1, 1, 1, 1)

    def test_collapse_to_one_mode(self):
        mix = four_mode_mix()
        samples = Tensor4(np.repeat(mix.means[1][None], 8, axis=0))
        report = mode_report(samples, mix, tau=1.0)
        assert report.recall == 0.25
        assert report.precision == 1.0
        assert report.counts == (0, 8, 0, 0)

    def test_far_samples_have_zero_precision(self):
        mix = four_mode_mix()
        samples = Tensor4(np.full((5,) + SHAPE, 1000.0))
        report = mode_report(samples, mix, tau=1.0)
        assert report.precision == 0.0
        assert report.recall == 0.0

    def test_permutation_invariance(self):
        mix = four_mode_mix()
        samples = mix.means[rng.integers(0, 4, size=12)] + 0.01 * rng.normal(size=(12,) + SHAPE)
        a = mode_report(Tensor4(samples), mix, tau=1.0)
        b = mode_report(Tensor4(samples[::-1].copy()), mix, tau=1.0)
        assert a == b

    def test_tau_validation(self):
        for tau in (0.0, float("nan")):
            with pytest.raises(UsageError):
                mode_report(Tensor4(np.zeros((1,) + SHAPE)), four_mode_mix(), tau=tau)

    def test_default_tau_scales_with_dimension(self):
        mix = four_mode_mix()
        assert default_tau(mix) == pytest.approx(3 * 0.05 * np.sqrt(32))


class TestBandEnergyFraction:
    def test_constant_image_haar_is_all_low(self):
        x = Tensor4(np.full((1, 1, 8, 8), 2.0))
        low, high = band_energy_fraction(x, TransformKind.haar())
        assert low == pytest.approx(1.0, abs=1e-12)
        assert high == pytest.approx(0.0, abs=1e-12)

    def test_zero_image_guard(self):
        x = Tensor4(np.zeros((1, 1, 8, 8)))
        for kind in (TransformKind.haar(), TransformKind.pyramid(1)):
            assert band_energy_fraction(x, kind) == (0.0, 0.0)

    def test_checkerboard_haar_is_all_high(self):
        yy, xx = np.mgrid[0:8, 0:8]
        checker = ((-1.0) ** (yy + xx)).astype(float)
        x = Tensor4(checker[None, None])
        low, high = band_energy_fraction(x, TransformKind.haar())
        assert high == pytest.approx(1.0, abs=1e-12)
        # verified by the 2x2 block oracle: every block is [+1,-1;-1,+1] -> pure hh
        details, ll = transform_bands(x, TransformKind.haar())
        assert np.abs(ll.data).max() == 0.0
        assert np.abs(details.data[:, 2]).max() == pytest.approx(2.0)  # hh of one channel

    def test_haar_fractions_sum_to_one(self):
        x = Tensor4(rng.normal(size=(2, 3, 16, 16)))
        low, high = band_energy_fraction(x, TransformKind.haar())
        assert low + high == pytest.approx(1.0, abs=1e-9)

    def test_pyramid_fractions_normalized_over_band_sum(self):
        x = Tensor4(rng.normal(size=(1, 1, 32, 32)))
        low, high = band_energy_fraction(x, TransformKind.pyramid(2))
        assert low + high == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= low <= 1.0


class TestSaturationProxy:
    def test_weight_replicated_means_score_zero(self):
        mix = four_mode_mix()
        samples = Tensor4(np.repeat(mix.means, 3, axis=0))  # equal weights, 3 copies each
        assert saturation_proxy(samples, mix) == pytest.approx(0.0, abs=1e-12)

    def test_constant_channel_offset(self):
        mix = four_mode_mix()
        offset = 0.8
        samples = Tensor4(np.repeat(mix.means, 2, axis=0) + offset)
        # mean gap is exactly offset on every channel, std gap zero
        assert saturation_proxy(samples, mix) == pytest.approx(offset / 2, abs=1e-12)

    def test_order_invariance(self):
        mix = four_mode_mix()
        samples = mix.means[rng.integers(0, 4, size=10)] + 0.1 * rng.normal(size=(10,) + SHAPE)
        a = saturation_proxy(Tensor4(samples), mix)
        b = saturation_proxy(Tensor4(samples[::-1].copy()), mix)
        assert a == pytest.approx(b, abs=1e-15)
