import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import acceptance_spec, all_means

from freqguide import (
    IsotropicGaussianMixture,
    Tensor4,
    TransformKind,
    UsageError,
    band_energy_fraction,
    blob_mixture_from_spec,
    class_labels,
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
        weights=np.full(4, 0.25), means=means, scale=0.05
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

    @pytest.mark.parametrize("transform", [TransformKind.pyramid(3), TransformKind.haar()], ids=["pyramid3", "haar"])
    def test_batch_500_in_blocks(self, transform):
        """The bands of the whole batch took 34.6 MiB (pyramid(3)) and 32.2 MiB
        (Haar); block sums agree with the whole-batch shares."""
        x = Tensor4(rng.normal(size=(500, 3, 32, 32)))
        tracemalloc.start()
        try:
            got = band_energy_fraction(x, transform)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MiB"
        energies = [np.sum(b.data**2) for b in transform_bands(x, transform)]
        denom = np.sum(x.data**2) if transform.kind == "haar" else sum(energies)
        want = (energies[-1] / denom, sum(energies[:-1]) / denom)
        assert got == pytest.approx(want, rel=1e-14, abs=0)


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

    def test_channel_statistics_have_the_whole_batch_bytes(self):
        """Channel by channel, the proxy has the bytes of the formula on the
        transposed batch it once copied."""
        mix = four_mode_mix()
        samples = Tensor4(mix.means[rng.integers(0, 4, size=50)] + 0.3 * rng.normal(size=(50,) + SHAPE))
        s = samples.data.transpose(1, 0, 2, 3).reshape(SHAPE[0], -1)
        m = mix.means.reshape(4, SHAPE[0], -1)
        r_mean = np.einsum("k,kcd->c", mix.weights, m) / m.shape[2]
        r_std = np.sqrt(np.maximum(np.einsum("k,kcd->c", mix.weights, m**2) / m.shape[2] - r_mean**2, 0.0))
        want = np.mean(0.5 * (np.abs(s.mean(axis=1) - r_mean) + np.abs(s.std(axis=1) - r_std)))
        assert saturation_proxy(samples, mix) == want

    def test_factored_reference_builds_no_means(self):
        """Class 1 of the 1024-component model held 6.0 MiB of means and
        peaked at 12.9 MiB when the proxy read ``means``."""
        spec = replace(
            acceptance_spec(),
            centers=tuple((r + 0.5, c + 0.5) for r in range(0, 32, 2) for c in range(0, 32, 2)),
            n_classes=4,
            class_center_weights=None,
        )
        mix = blob_mixture_from_spec(spec)
        subset = mix.restricted(np.flatnonzero(class_labels(spec) == 1))
        samples = Tensor4(rng.normal(size=(4,) + spec.image_shape))
        tracemalloc.start()
        try:
            got = saturation_proxy(samples, subset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mix.table is None and "means" not in vars(subset) and "means" not in vars(mix)
        assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MiB"
        # the reference moments from all the means at once
        m = all_means(subset).reshape(subset.n_components, spec.channels, -1)
        r_mean = np.einsum("k,kcd->c", subset.weights, m) / m.shape[2]
        r_std = np.sqrt(np.einsum("k,kcd->c", subset.weights, m**2) / m.shape[2] - r_mean**2)
        s = samples.data.transpose(1, 0, 2, 3).reshape(spec.channels, -1)
        want = np.mean(0.5 * (np.abs(s.mean(axis=1) - r_mean) + np.abs(s.std(axis=1) - r_std)))
        assert got == pytest.approx(want, rel=1e-12)
