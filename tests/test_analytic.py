import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from conftest import acceptance_spec

from freqguide import (
    BlobTextureSpec,
    ConfigError,
    DomainError,
    GuidanceConfig,
    IsotropicGaussianMixture,
    ShapeError,
    Tensor4,
    TransformKind,
    UsageError,
    blob_mixture_from_spec,
    class_labels,
    degrade,
    freqcfg_combine,
    make_denoiser_pair,
    posterior_mean,
    transform_bands,
)

rng = np.random.default_rng(42)

SHAPE = (1, 4, 4)
DIM = 16


def mixture(weights, means, scales):
    return IsotropicGaussianMixture(
        weights=np.asarray(weights, float),
        means=np.asarray(means, float),
        scales=np.asarray(scales, float),
    )


class TestMixtureValidation:
    def test_weights_normalized(self):
        mix = mixture([2.0, 2.0], np.zeros((2,) + SHAPE), [1.0, 1.0])
        assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            mixture([1.0, 0.0], np.zeros((2,) + SHAPE), [1.0, 1.0])
        with pytest.raises(DomainError):
            mixture([1.0], np.zeros((1,) + SHAPE), [0.0])

    def test_rejects_mismatched_counts(self):
        with pytest.raises(ShapeError):
            mixture([1.0], np.zeros((2,) + SHAPE), [1.0])

    def test_restricted_empty(self):
        mix = mixture([1.0], np.zeros((1,) + SHAPE), [1.0])
        with pytest.raises(ConfigError):
            mix.restricted([])


class TestPosteriorMean:
    def test_sigma_zero_returns_input(self):
        mix = mixture([1.0], rng.normal(size=(1,) + SHAPE), [0.5])
        z = Tensor4(rng.normal(size=(2,) + SHAPE))
        assert posterior_mean(z, 0.0, mix) is z

    def test_single_component_conjugate_formula(self):
        mu = rng.normal(size=SHAPE)
        s, sigma = 0.8, 1.3
        mix = mixture([1.0], mu[None], [s])
        z = Tensor4(rng.normal(size=(3,) + SHAPE))
        got = posterior_mean(z, sigma, mix).data
        expected = (s**2 * z.data + sigma**2 * mu) / (s**2 + sigma**2)
        assert np.abs(got - expected).max() < 1e-12

    def test_against_monte_carlo(self):
        # self-normalized importance sampling from the prior, 1e6 draws
        mc_rng = np.random.default_rng(123)
        mix = mixture(
            [0.3, 0.7],
            np.stack([mc_rng.normal(size=SHAPE), mc_rng.normal(size=SHAPE)]),
            [0.5, 1.2],
        )
        sigma = 0.8
        z = Tensor4(mc_rng.normal(size=(1,) + SHAPE))
        got = posterior_mean(z, sigma, mix).data.ravel()

        n = 1_000_000
        ks = mc_rng.choice(2, size=n, p=mix.weights)
        xs = mix.means[ks].reshape(n, -1) + mix.scales[ks, None] * mc_rng.normal(size=(n, DIM))
        logw = -np.sum((z.data.ravel()[None, :] - xs) ** 2, axis=1) / (2 * sigma**2)
        logw -= logw.max()
        w = np.exp(logw)
        w /= w.sum()
        estimate = w @ xs
        # per-coordinate standard error of the self-normalized estimator
        se = np.sqrt(np.sum(w[:, None] ** 2 * (xs - estimate) ** 2, axis=0))
        assert np.all(np.abs(got - estimate) <= 3.0 * se + 1e-12)

    def test_mirror_symmetry(self):
        mu = np.zeros(SHAPE)
        mu_flat = mu.ravel().copy()
        mu_flat[0] = 1.0
        mu_a = mu_flat.reshape(SHAPE)
        mu_b = -mu_a
        mix = mixture([0.5, 0.5], np.stack([mu_a, mu_b]), [0.4, 0.4])
        # z on the mirror hyperplane (first coordinate zero)
        z_flat = rng.normal(size=DIM)
        z_flat[0] = 0.0
        z = Tensor4(z_flat.reshape((1,) + SHAPE))
        out = posterior_mean(z, 0.9, mix).data.ravel()
        assert abs(out[0]) < 1e-12  # output stays on the hyperplane

    def test_large_sigma_approaches_prior_mean(self):
        mix = mixture(
            [0.25, 0.75],
            np.stack([rng.normal(size=SHAPE), rng.normal(size=SHAPE)]),
            [0.5, 0.7],
        )
        z = Tensor4(rng.normal(size=(1,) + SHAPE))
        out = posterior_mean(z, 1e6, mix).data[0]
        prior_mean = np.tensordot(mix.weights, mix.means, axes=1)
        assert np.abs(out - prior_mean).max() <= 1e-3 * np.abs(prior_mean).max() + 1e-6

    def test_tiny_sigma_far_z_stays_finite_and_continuous(self):
        mix = mixture(
            [0.5, 0.5], np.stack([np.zeros(SHAPE), np.full(SHAPE, 100.0)]), [0.01, 0.01]
        )
        z = Tensor4(np.full((1,) + SHAPE, 57.0))
        out = posterior_mean(z, 1e-6, mix)
        assert np.all(np.isfinite(out.data))
        # continuous approach to the sigma = 0 identity
        assert np.abs(out.data - z.data).max() < 1e-6

    def test_negative_sigma_rejected(self):
        mix = mixture([1.0], np.zeros((1,) + SHAPE), [1.0])
        with pytest.raises(DomainError):
            posterior_mean(Tensor4(np.zeros((1,) + SHAPE)), -0.1, mix)


class TestDenoiserPair:
    def test_single_class_makes_cond_equal_uncond(self):
        mix = mixture(
            [0.4, 0.6], np.stack([rng.normal(size=SHAPE)] * 2), [0.5, 0.9]
        )
        pair = make_denoiser_pair(mix, [0, 0])
        z = Tensor4(rng.normal(size=(2,) + SHAPE))
        cond = pair.cond(z, 0.7, 0)
        uncond = pair.uncond(z, 0.7)
        assert np.abs(cond.data - uncond.data).max() < 1e-12

    def test_null_condition_equals_uncond(self):
        mix = mixture(
            [0.5, 0.5], np.stack([np.zeros(SHAPE), np.ones(SHAPE)]), [0.5, 0.5]
        )
        pair = make_denoiser_pair(mix, [0, 1])
        z = Tensor4(rng.normal(size=(1,) + SHAPE))
        assert np.array_equal(pair.cond(z, 1.1, None).data, pair.uncond(z, 1.1).data)

    def test_far_separated_guidance_direction(self):
        mu1 = np.zeros(SHAPE)
        mu2 = np.full(SHAPE, 10.0)
        mix = mixture([0.5, 0.5], np.stack([mu1, mu2]), [0.1, 0.1])
        pair = make_denoiser_pair(mix, [0, 1])
        z = Tensor4((mu1 + 0.05 * rng.normal(size=SHAPE))[None])  # near mu1
        sigma = 0.2
        cond = pair.cond(z, sigma, 1)  # condition on the far class
        uncond = pair.uncond(z, sigma)
        assert np.linalg.norm(cond.data - mu2) < np.linalg.norm(cond.data - mu1)
        # uncond stays close to the occupied mode (within the Wiener residue)
        assert np.linalg.norm(uncond.data - mu1) < 0.05 * np.linalg.norm(mu2 - mu1)
        diff = (cond.data - uncond.data).ravel()
        direction = (mu2 - mu1).ravel()
        cosine = diff @ direction / (np.linalg.norm(diff) * np.linalg.norm(direction))
        assert cosine > 0.9

    def test_cfg_w1_is_cond(self):
        mix = mixture(
            [0.5, 0.5], np.stack([np.zeros(SHAPE), np.ones(SHAPE)]), [0.5, 0.5]
        )
        pair = make_denoiser_pair(mix, [0, 1])
        z = Tensor4(rng.normal(size=(1,) + SHAPE))
        cond = pair.cond(z, 0.9, 1)
        uncond = pair.uncond(z, 0.9)
        plain_cfg = GuidanceConfig(transform=TransformKind.haar(), scales=(1.0, 1.0))
        assert np.abs(freqcfg_combine(cond, uncond, plain_cfg).data - cond.data).max() < 1e-12

    def test_unknown_class_rejected(self):
        mix = mixture([1.0], np.zeros((1,) + SHAPE), [1.0])
        pair = make_denoiser_pair(mix, [0])
        z = Tensor4(np.zeros((1,) + SHAPE))
        with pytest.raises(ConfigError):
            pair.cond(z, 1.0, 5)
        with pytest.raises(ConfigError):
            pair.both(z, 1.0, 5)
        assert pair.by_class == {}

    def test_class_subset_built_on_first_use(self):
        mix = mixture([0.2, 0.3, 0.5], rng.normal(size=(3,) + SHAPE), [0.5, 0.5, 0.5])
        pair = make_denoiser_pair(mix, [0, 1, 1])
        z = Tensor4(rng.normal(size=(1,) + SHAPE))
        assert pair.by_class == {}
        pair.both(z, 1.0, None)
        assert pair.by_class == {}
        pair.both(z, 1.0, 1)
        sub = pair.by_class[1]
        assert list(pair.by_class) == [1] and list(sub.indices) == [1, 2] and sub.parent is mix
        pair.cond(z, 1.0, 1)
        assert pair.by_class[1] is sub

    def test_threads_share_one_class_subset(self):
        spec = BlobTextureSpec(n_classes=3)
        mix = blob_mixture_from_spec(spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                pair = make_denoiser_pair(mix, class_labels(spec))
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(pair.class_mixture, i % 3) for i in range(24)]
                    got = [f.result(timeout=30) for f in futures]
                assert sorted(pair.by_class) == [0, 1, 2]
                assert all(sub is pair.by_class[i % 3] for i, sub in enumerate(got))
        finally:
            sys.setswitchinterval(interval)

    def test_labels_must_cover_components(self):
        mix = mixture([0.5, 0.5], np.zeros((2,) + SHAPE), [1.0, 1.0])
        with pytest.raises(ConfigError):
            make_denoiser_pair(mix, [0])


def many_modes_spec() -> BlobTextureSpec:
    """The acceptance model with 16 x 16 centers and 4 classes: 1024 components."""
    return replace(
        acceptance_spec(),
        centers=tuple((r + 0.5, c + 0.5) for r in range(0, 32, 2) for c in range(0, 32, 2)),
        n_classes=4,
        class_center_weights=None,
    )


@pytest.fixture(scope="module", params=["acceptance", "many_modes"])
def model(request):
    spec = acceptance_spec() if request.param == "acceptance" else many_modes_spec()
    mix = blob_mixture_from_spec(spec)
    labels = class_labels(spec)
    return spec, mix, labels, make_denoiser_pair(mix, labels)


class TestJointEvaluation:
    @pytest.mark.parametrize("sigma", [80.0, 3.0, 0.3, 0.02])
    def test_both_equals_separate_calls(self, model, sigma):
        """The joint pass equals separate calls, and the many-mode model's
        atom path equals the dense path through its K means."""
        spec, mix, labels, pair = model
        dense = IsotropicGaussianMixture(mix.weights, mix.means, mix.scales)
        assert dense.atoms is None
        gen = np.random.default_rng(11)
        for condition in [None] + list(range(spec.n_classes)):
            # four noisy draws from the class's components (class 0 for None)
            members = np.flatnonzero(labels == (condition or 0))
            x = mix.means[gen.choice(members, size=4)]
            x = x + spec.noise_scale * gen.standard_normal(x.shape)
            z = Tensor4(x + sigma * gen.standard_normal(x.shape))
            d_c, d_u = pair.both(z, sigma, condition)
            full = posterior_mean(z, sigma, mix).data
            assert np.array_equal(d_u.data, full)
            assert np.abs(full - posterior_mean(z, sigma, dense).data).max() <= 1e-12
            if condition is None:
                assert np.array_equal(d_c.data, full)
                continue
            idx = np.flatnonzero(labels == condition)
            for reference in (mix.restricted(idx), dense.restricted(idx)):
                assert np.abs(d_c.data - posterior_mean(z, sigma, reference).data).max() <= 1e-12

    def test_subset_must_come_from_mix(self):
        a = mixture([0.5, 0.5], rng.normal(size=(2,) + SHAPE), [0.5, 0.5])
        b = mixture([0.5, 0.5], rng.normal(size=(2,) + SHAPE), [0.5, 0.5])
        z = Tensor4(rng.normal(size=(1,) + SHAPE))
        with pytest.raises(UsageError):
            posterior_mean(z, 1.0, a, subset=b.restricted([0]))
        with pytest.raises(UsageError):
            posterior_mean(z, 1.0, a, subset=a)

    def test_sigma_zero_returns_input_twice(self):
        mix = mixture([0.5, 0.5], rng.normal(size=(2,) + SHAPE), [0.5, 0.5])
        z = Tensor4(rng.normal(size=(1,) + SHAPE))
        assert posterior_mean(z, 0.0, mix, subset=mix.restricted([1])) == (z, z)

    @pytest.mark.parametrize("value", [1e200, 1e154])
    def test_overflow_is_domain_error(self, value):
        mix = mixture([0.5, 0.5], np.stack([np.zeros(SHAPE), np.ones(SHAPE)]), [0.5, 0.5])
        pair = make_denoiser_pair(mix, [0, 1])
        z = Tensor4(np.full((1,) + SHAPE, value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                posterior_mean(z, 1.0, mix)
            with pytest.raises(DomainError):
                pair.both(z, 1.0, 0)


class TestCachedConstants:
    def test_values_and_read_only(self):
        mix = blob_mixture_from_spec(BlobTextureSpec(centers=((8.0, 8.0), (24.0, 24.0)), n_classes=3))
        sub = mix.restricted([1, 4])
        for m in (mix, sub):
            flat = m.means.reshape(m.n_components, -1)
            assert np.shares_memory(m.flat, m.means) and m.flat.shape == flat.shape
            assert np.array_equal(m.sq_norms, np.einsum("kd,kd->k", flat, flat))
            assert np.array_equal(m.log_weights, np.log(m.weights))
            for arr in (m.weights, m.means, m.scales, m.flat, m.sq_norms, m.log_weights):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0
        assert sub.parent is mix and list(sub.indices) == [1, 4]
        assert not sub.indices.flags.writeable
        assert mix.parent is None and mix.indices is None

    def test_atoms_read_only_and_shared_by_restricted(self):
        mix = blob_mixture_from_spec(BlobTextureSpec(n_classes=3))  # A = 4 + 2·3 < K = 12
        sub = mix.restricted([1, 4, 11])
        assert sub.atoms is mix.atoms and mix.atoms.shape == (10, mix.dim)
        assert np.array_equal(sub.incidence, mix.incidence[[1, 4, 11]])
        assert np.array_equal(sub.incidence @ sub.atoms, sub.flat)
        for arr in (mix.atoms, mix.incidence, sub.incidence):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert degrade(mix, 0.0, 1.0, seed=0).atoms is None

    def test_restricted_copies_caller_indices(self):
        mix = mixture([0.5, 0.5], rng.normal(size=(2,) + SHAPE), [0.5, 0.5])
        idx = np.array([1])
        sub = mix.restricted(idx)
        idx[0] = 0
        assert list(sub.indices) == [1]


class TestDegrade:
    def test_identity_degradation(self):
        mix = mixture(
            [0.5, 0.5], np.stack([np.zeros(SHAPE), np.ones(SHAPE)]), [0.5, 0.5]
        )
        same = degrade(mix, 0.0, 1.0, seed=3)
        assert np.array_equal(same.means, mix.means)
        assert np.array_equal(same.scales, mix.scales)
        assert np.array_equal(same.weights, mix.weights)

    def test_inflate_doubles_scales(self):
        mix = mixture([1.0], np.zeros((1,) + SHAPE), [0.7])
        assert degrade(mix, 0.0, 2.0, seed=0).scales[0] == pytest.approx(1.4)

    def test_seeded_jitter_reproducible(self):
        mix = mixture([1.0], np.zeros((1,) + SHAPE), [0.7])
        a = degrade(mix, 0.3, 1.0, seed=9)
        b = degrade(mix, 0.3, 1.0, seed=9)
        c = degrade(mix, 0.3, 1.0, seed=10)
        assert np.array_equal(a.means, b.means)
        assert not np.array_equal(a.means, c.means)

    def test_domain_checks(self):
        mix = mixture([1.0], np.zeros((1,) + SHAPE), [0.7])
        with pytest.raises(DomainError):
            degrade(mix, -0.1, 1.0, seed=0)
        with pytest.raises(DomainError):
            degrade(mix, 0.0, 0.9, seed=0)


class TestBlobTextureSpec:
    def test_invariants_enforced(self):
        with pytest.raises(ConfigError):
            BlobTextureSpec(blob_radius=4.0)
        with pytest.raises(ConfigError):
            BlobTextureSpec(texture_freq=0.1)
        with pytest.raises(ConfigError):
            BlobTextureSpec(centers=((40.0, 8.0),))
        with pytest.raises(ConfigError):
            BlobTextureSpec(class_center_weights=((0.5, 0.4),))

    def test_cartesian_two_by_two(self):
        spec = BlobTextureSpec(centers=((8.0, 8.0), (24.0, 24.0)), n_classes=2)
        mix = blob_mixture_from_spec(spec)
        assert mix.n_components == 4
        assert np.allclose(mix.weights, 0.25)
        assert list(class_labels(spec)) == [0, 1, 0, 1]

    def test_zero_texture_amplitude_shares_means(self):
        spec = BlobTextureSpec(texture_amplitude=0.0)
        mix = blob_mixture_from_spec(spec)
        labels = class_labels(spec)
        means0 = mix.means[labels == 0]
        means1 = mix.means[labels == 1]
        assert np.array_equal(means0, means1)
        pair = make_denoiser_pair(mix, labels)
        z = Tensor4(rng.normal(size=(2,) + spec.image_shape))
        for sigma in (0.1, 1.0, 20.0):
            cond = pair.cond(z, sigma, 0)
            uncond = pair.uncond(z, sigma)
            assert np.abs(cond.data - uncond.data).max() < 1e-9

    def test_zero_blob_amplitude_has_no_residual_energy(self):
        spec = BlobTextureSpec(blob_amplitude=0.0)
        mix = blob_mixture_from_spec(spec)
        kind = TransformKind.pyramid(1)
        for k in range(mix.n_components):
            mean = Tensor4(mix.means[k][None])
            bands = transform_bands(mean, kind)
            residual_energy = float(np.sum(bands[-1].data ** 2))
            total = float(sum(np.sum(b.data**2) for b in bands))
            assert residual_energy < 1e-6 * total

    def test_block_blob_lives_in_haar_ll(self):
        spec = BlobTextureSpec(blob_block=2, texture_amplitude=0.0)
        mix = blob_mixture_from_spec(spec)
        details, _ = transform_bands(Tensor4(mix.means[0][None]), TransformKind.haar())
        assert np.abs(details.data).max() == 0.0

    def test_texture_lives_in_haar_details(self):
        spec = BlobTextureSpec(blob_amplitude=0.0)
        mix = blob_mixture_from_spec(spec)
        _, ll = transform_bands(Tensor4(mix.means[0][None]), TransformKind.haar())
        assert np.abs(ll.data).max() < 1e-15

    def test_class_center_weights_shape_mixture_weights(self):
        spec = BlobTextureSpec(
            centers=((8.0, 8.0), (24.0, 24.0)),
            class_center_weights=((0.9, 0.1), (0.2, 0.8)),
        )
        mix = blob_mixture_from_spec(spec)
        # component order: (center0, class0), (center0, class1), (center1, ...)
        assert np.allclose(mix.weights, [0.45, 0.1, 0.05, 0.4])


def loop_mixture(spec: BlobTextureSpec):
    """Reference build: one literal blob per (center, class) component."""
    block = spec.blob_block
    yy = block * (np.arange(spec.height // block, dtype=np.float64)[:, None] + 0.5) - 0.5
    xx = block * (np.arange(spec.width // block, dtype=np.float64)[None, :] + 0.5) - 0.5
    means, weights = [], []
    for j, (cy, cx) in enumerate(spec.centers):
        bump = spec.blob_amplitude * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * spec.blob_radius**2)
        )
        blob = np.broadcast_to(np.kron(bump, np.ones((block, block))), spec.image_shape)
        for k in range(spec.n_classes):
            means.append(blob + spec.texture_image(j, k))
            weights.append(spec.center_weights(k)[j] / spec.n_classes)
    return np.array(weights), np.stack(means)


class TestVectorizedBuild:
    @pytest.mark.parametrize(
        "spec",
        [
            BlobTextureSpec(),
            BlobTextureSpec(
                height=15, width=17, channels=2,
                centers=((3.0, 4.0), (11.5, 2.0), (7.0, 16.0)),
                n_classes=3,
                class_center_weights=((0.2, 0.3, 0.5), (0.6, 0.2, 0.2), (1 / 3, 1 / 3, 1 / 3)),
            ),
            BlobTextureSpec(height=16, width=20, centers=((5.0, 5.0),), n_classes=1, blob_block=2),
            BlobTextureSpec(
                height=15, width=17, channels=2,
                centers=((3.0, 4.0), (11.5, 2.0), (7.0, 16.0)),
                n_classes=4,
            ),
            acceptance_spec(),
            many_modes_spec(),
        ],
        ids=["default", "odd-3x3", "one-center-block2", "odd-3x4", "acceptance", "many-modes"],
    )
    def test_equals_per_component_loop(self, spec):
        mix = blob_mixture_from_spec(spec)
        weights, means = loop_mixture(spec)
        # atoms: J blobs and min(2, J) textures per class, kept only when
        # fewer than the K components (odd-3x4 and many-modes)
        n_atoms = len(spec.centers) + min(2, len(spec.centers)) * spec.n_classes
        assert (mix.atoms is not None) == (n_atoms < len(means))
        if mix.atoms is not None:
            assert mix.atoms.shape == (n_atoms, mix.dim)
            assert set(np.unique(mix.incidence)) == {0.0, 1.0}
            assert np.array_equal(mix.incidence @ mix.atoms, means.reshape(len(means), -1))
        assert mix.means.tobytes() == means.tobytes()
        assert mix.weights.tobytes() == mixture(weights, means, mix.scales).weights.tobytes()
        assert mix.scales.tobytes() == np.full(len(means), spec.noise_scale).tobytes()
        for j in range(len(spec.centers)):
            for k in range(spec.n_classes):
                assert np.array_equal(mix.means[j * spec.n_classes + k], spec.mean_image(j, k))
