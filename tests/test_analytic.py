import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    ACCEPTANCE_SCHEDULE, acceptance_spec, all_means, assert_endpoints_match_the_band_path, spy_combine_batches,
)

from freqguide import (
    BlobTextureSpec,
    ConfigError,
    DenoiserPair,
    DomainError,
    GuidanceConfig,
    IsotropicGaussianMixture,
    NoiseSchedule,
    NormRecorder,
    SampleRunConfig,
    ShapeError,
    Tensor4,
    TransformKind,
    UsageError,
    blob_mixture_from_spec,
    class_labels,
    degrade,
    freqcfg_combine,
    guided_denoise,
    initial_noise,
    make_denoiser_pair,
    mode_report,
    posterior_mean,
    sample,
    transform_bands,
)
from freqguide import analytic, tensor
from freqguide.cli import EXIT_CODES, build_pair
from freqguide.config import Config
from freqguide.guidance import operator
from freqguide.span import _row_space, span_of

rng = np.random.default_rng(42)

SHAPE = (1, 4, 4)
DIM = 16


def mixture(weights, means, scales):
    return IsotropicGaussianMixture(
        weights=np.asarray(weights, float),
        means=np.asarray(means, float),
        scales=np.asarray(scales, float),
    )


def same_atoms(a, b) -> bool:
    return all(getattr(a, name) is getattr(b, name) for name in ("table", "rows", "cols"))


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

    @pytest.mark.parametrize("index", [99, 2, -1])
    def test_restricted_out_of_range(self, index):
        mix = mixture([0.5, 0.5], np.zeros((2,) + SHAPE), [1.0, 1.0])
        with pytest.raises(ConfigError, match=f"component index {index} outside 0..1"):
            mix.restricted([0, index])

    @pytest.mark.parametrize("index", [0.7, float("nan"), "1"])
    def test_restricted_non_integer(self, index):
        mix = mixture([0.5, 0.5], np.zeros((2,) + SHAPE), [1.0, 1.0])
        with pytest.raises(ConfigError, match=f"component index must be an integer, got {index!r}"):
            mix.restricted([index])

    def test_restricted_duplicate(self):
        mix = mixture([0.2, 0.3, 0.5], np.zeros((3,) + SHAPE), [1.0, 1.0, 1.0])
        with pytest.raises(ConfigError, match="component index 1 given more than once"):
            mix.restricted([2, 1, 0, 1])
        # integer-valued floats name the same components as ints
        assert mix.restricted([2.0, 0.0]).cells.tolist() == [[2], [0]]


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
        with pytest.raises(ConfigError, match=r"unknown class \[5\]; have \[0\]"):
            pair.cond(z, 1.0, [5])
        assert list(pair.by_class) == [0]

    def test_class_subsets_built_with_the_pair(self):
        mix = mixture([0.2, 0.3, 0.5], rng.normal(size=(3,) + SHAPE), [0.5, 0.5, 0.5])
        pair = make_denoiser_pair(mix, [1, 0, 0])
        assert list(pair.by_class) == [0, 1]
        sub = pair.by_class[0]
        assert sub.cells.tolist() == [[1], [2]] and sub.table is mix.table
        z = Tensor4(rng.normal(size=(1,) + SHAPE))
        pair.both(z, 1.0, 0)
        pair.cond(z, 1.0, 0)
        assert pair.class_mixture(0) is sub and list(pair.by_class) == [0, 1]

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

    def test_labels_must_be_integers(self):
        mix = mixture([0.5, 0.5], np.zeros((2,) + SHAPE), [1.0, 1.0])
        with pytest.raises(ConfigError, match="class label must be an integer, got 0.5"):
            make_denoiser_pair(mix, [0.5] * 2)
        with pytest.raises(ConfigError, match="got True"):
            make_denoiser_pair(mix, [True, False])


def many_modes_spec() -> BlobTextureSpec:
    """The acceptance model with 16 x 16 centers and 4 classes: 1024 components."""
    return replace(
        acceptance_spec(),
        centers=tuple((r + 0.5, c + 0.5) for r in range(0, 32, 2) for c in range(0, 32, 2)),
        n_classes=4,
        class_center_weights=None,
    )


def model_of(spec: BlobTextureSpec):
    mix = blob_mixture_from_spec(spec)
    labels = class_labels(spec)
    return spec, mix, labels, make_denoiser_pair(mix, labels)


@pytest.fixture(scope="module")
def many_modes():
    return model_of(many_modes_spec())


@pytest.fixture(scope="module", params=["acceptance", "many_modes"])
def model(request):
    if request.param == "acceptance":
        return model_of(acceptance_spec())
    return request.getfixturevalue("many_modes")


class TestJointEvaluation:
    @pytest.mark.parametrize("sigma", [80.0, 3.0, 0.3, 0.02])
    def test_both_equals_separate_calls(self, model, sigma):
        """The joint pass equals separate calls, and the many-mode model's
        factored path equals the dense path through its K means."""
        spec, mix, labels, pair = model
        means = all_means(mix)
        dense = IsotropicGaussianMixture(mix.weights, means, mix.scales)
        dense_pair = make_denoiser_pair(dense, labels)
        assert dense.table is not None
        assert (mix.table is not None) == (spec.n_classes == 2)  # acceptance: 8 planes, K = 8
        gen = np.random.default_rng(11)
        for condition in [None] + list(range(spec.n_classes)):
            # four noisy draws from the class's components (class 0 for None)
            members = np.flatnonzero(labels == (condition or 0))
            x = means[gen.choice(members, size=4)]
            x = x + spec.noise_scale * gen.standard_normal(x.shape)
            z = Tensor4(x + sigma * gen.standard_normal(x.shape))
            d_c, d_u = pair.both(z, sigma, condition)
            full = posterior_mean(z, sigma, mix).data
            assert np.array_equal(d_u.data, full)
            assert np.abs(full - posterior_mean(z, sigma, dense).data).max() <= 1e-12
            for got, want in zip((d_c, d_u), dense_pair.both(z, sigma, condition)):
                assert np.abs(got.data - want.data).max() <= 1e-12
            if condition is None:
                assert np.array_equal(d_c.data, full)
                continue
            idx = np.flatnonzero(labels == condition)
            for reference in (mix.restricted(idx), dense.restricted(idx)):
                assert np.abs(d_c.data - posterior_mean(z, sigma, reference).data).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["dense", "factored"])
    @pytest.mark.parametrize("sigma", [3.0, 0.3, 0.02])
    def test_nested_and_sibling_subsets_equal_separate_calls(self, many_modes, kind, sigma):
        """Any two mixtures that share their atoms run one joint pass: a
        subset of a subset beside the root, two classes side by side, a
        mixture beside itself.  Each side has the bytes of its own call and
        is the posterior under a mixture given that side's means."""
        spec, mix, labels, pair = many_modes
        if kind == "dense":
            mix = IsotropicGaussianMixture(mix.weights, all_means(mix), mix.scales)
            pair = make_denoiser_pair(mix, labels)
        nested = pair.class_mixture(1).restricted([3, 0, 200, 17])
        gen = np.random.default_rng(23)
        z = Tensor4(all_means(mix)[[1, 5, 600]] + sigma * gen.standard_normal((3,) + spec.image_shape))
        joint = [
            (mix, nested),
            (pair.class_mixture(0), pair.class_mixture(3)),
            (nested, pair.class_mixture(2).restricted([9])),
            (mix, mix),
        ]
        for outer, inner in joint:
            assert same_atoms(outer, inner)
            got = posterior_mean(z, sigma, outer, subset=inner)
            want = [posterior_mean(z, sigma, m).data.tobytes() for m in (inner, outer)]
            assert [t.data.tobytes() for t in got] == want
            for side, t in zip((inner, outer), got):
                given = IsotropicGaussianMixture(side.weights, all_means(side), side.scales)
                assert np.abs(t.data - posterior_mean(z, sigma, given).data).max() <= 1e-12

    def test_subset_must_share_the_atoms_of_mix(self, many_modes):
        a = mixture([0.5, 0.5], rng.normal(size=(2,) + SHAPE), [0.5, 0.5])
        b = mixture([0.5, 0.5], rng.normal(size=(2,) + SHAPE), [0.5, 0.5])
        z = Tensor4(rng.normal(size=(1,) + SHAPE))
        for other in (b, b.restricted([0]), degrade(a, 0.0, 1.0, seed=0)):
            with pytest.raises(UsageError, match="subset must share the atoms of mix"):
                posterior_mean(z, 1.0, a, subset=other)
        spec, mix, _, _ = many_modes
        again = blob_mixture_from_spec(spec)  # equal factors, other arrays
        dense = IsotropicGaussianMixture(mix.weights, all_means(mix), mix.scales)
        z = Tensor4(np.zeros((1,) + spec.image_shape))
        for outer, inner in ((mix, again.restricted([0])), (mix, dense), (dense, mix.restricted([2]))):
            with pytest.raises(UsageError):
                posterior_mean(z, 1.0, outer, subset=inner)

    def test_sigma_zero_returns_input_twice(self):
        mix = mixture([0.5, 0.5], rng.normal(size=(2,) + SHAPE), [0.5, 0.5])
        z = Tensor4(rng.normal(size=(1,) + SHAPE))
        assert posterior_mean(z, 0.0, mix, subset=mix.restricted([1])) == (z, z)

    @pytest.mark.parametrize(
        "value, sigma, message",
        [
            (1e153, 1.0, r"\|z\|\^2 overflows float64 at sigma=1; reduce the scales"),
            # ‖z‖² is finite, ‖z - m_k‖² / (s² + σ²) is not
            (1e151, 0.02, "posterior mean overflows float64 at sigma=0.02"),
            (-1e151, 0.02, "posterior mean overflows float64 at sigma=0.02"),
        ],
    )
    def test_overflow_on_factored_path(self, many_modes, value, sigma, message):
        spec, mix, labels, pair = many_modes
        assert mix.table is None
        z = Tensor4(np.full((2,) + spec.image_shape, value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: posterior_mean(z, sigma, mix), lambda: pair.both(z, sigma, 2)):
                with pytest.raises(DomainError, match=message) as exc:
                    call()
                assert EXIT_CODES[exc.value.category] == 6

    @pytest.mark.parametrize("kind", ["dense", "factored"])
    def test_sigma_squared_overflow_is_domain_error(self, many_modes, kind):
        """σ² past float64 at finite ‖z‖²: the library call, the joint pass,
        the guided step in the span and the band path all raise it."""
        spec, mix, labels, pair = many_modes
        if kind == "dense":
            spec, mix, labels, pair = model_of(acceptance_spec())
        z = Tensor4(np.zeros((2,) + spec.image_shape))
        span = span_of(pair, HAAR, spec.image_shape)
        calls = [
            lambda: posterior_mean(z, 1e160, mix),
            lambda: pair.both(z, 1e160, 1),
            lambda: span.block(2, 1).guided(span.project(np.zeros(z.dims)), 1e160, 1, HAAR),
            lambda: pair.guided(z, 1e160, 1, HAAR),
            lambda: pair.guided(z, 1e160, 1, replace(HAAR, parallel_weights=(0.5, 1.0))),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(DomainError, match=r"sigma\^2 overflows float64 at sigma=1e\+160"):
                    call()

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


def band_path_ran(monkeypatch, pair, cfg, shape, recorder=None) -> bool:
    """Whether one guided evaluation of a batch of 3 ran ``freqcfg_combine``
    on that batch."""
    batches = spy_combine_batches(monkeypatch)
    z = Tensor4(np.random.default_rng(8).standard_normal((3,) + shape))
    guided_denoise(z, 0.5, 1.0, pair, cfg, condition=0, recorder=recorder)
    return 3 in batches


PYRAMID3 = GuidanceConfig(transform=TransformKind.pyramid(3), scales=(3.0, 2.0, 1.5, 1.0))
PYRAMID2 = GuidanceConfig(transform=TransformKind.pyramid(2), scales=(3.0, 2.0, 1.5))
HAAR = GuidanceConfig(transform=TransformKind.haar(), scales=(3.0, 1.5))


def overflow_spec() -> BlobTextureSpec:
    """A factored model (5 centers, 2 classes: 9 planes for 10 components)
    with blobs of amplitude 10, class-skewed centers and unit gratings, so
    that its classes are far apart at small σ and its Δ passes 1."""
    return BlobTextureSpec(
        centers=((8.0, 8.0), (8.0, 24.0), (16.0, 16.0), (24.0, 8.0), (24.0, 24.0)),
        blob_amplitude=10.0,
        texture_amplitude=1.0,
        noise_scale=0.01,
        class_center_weights=((0.6, 0.1, 0.1, 0.1, 0.1), (0.1, 0.1, 0.1, 0.1, 0.6)),
    )


def lifted_planes(mix, cfg) -> np.ndarray:
    """M·atom - (s_0 - 1)·atom = L·atom for every atom of ``mix``, through
    the band engine: M·x = freqcfg_combine(x, 0) - x."""
    atoms = all_means(mix) if mix.table is not None else np.repeat(
        (mix.rows[:, None, :, None] * mix.cols[None, :, None, :]).reshape((-1, 1) + mix.image_shape[1:]),
        mix.image_shape[0], axis=1,
    )
    return freqcfg_combine(Tensor4(atoms), Tensor4(np.zeros_like(atoms)), cfg).data - cfg.scales[0] * atoms


def assert_frame(span, noise: np.ndarray):
    """``project`` then ``reconstruct`` gives ``noise`` back, and the state
    u has the norm of each item."""
    z = noise.copy()
    u = span.project(z)
    norms = np.sqrt(np.einsum("bd,bd->b", u.data.reshape(len(u.data), -1), u.data.reshape(len(u.data), -1)))
    assert np.abs(norms - np.linalg.norm(noise.reshape(len(noise), -1), axis=1)).max() <= 1e-13 * norms.max()
    assert np.abs(span.reconstruct(u, z).data - noise).max() <= 1e-13 * np.abs(noise).max()


class TestSpan:
    """A pair whose components share one scale integrates ``sample``'s ODE
    in the span of its predictions: the rows of ``table`` and their lifts,
    or the planes of a factored mixture and theirs."""

    @pytest.mark.parametrize("cfg", [PYRAMID3, HAAR], ids=["pyramid3", "haar"])
    @pytest.mark.parametrize("sampler", ["euler", "heun"])
    def test_endpoints_match_the_band_path(self, blob_model, monkeypatch, cfg, sampler):
        spec, _, _, pair = blob_model
        assert_endpoints_match_the_band_path(monkeypatch, pair, spec, cfg, sampler)

    @pytest.mark.parametrize("sampler", ["euler", "heun"])
    def test_unguided_and_null_condition_endpoints_match(self, blob_model, many_modes, monkeypatch, sampler):
        for spec, _, _, pair in (blob_model, many_modes):
            check = dict(sampler=sampler, batch=3)
            assert_endpoints_match_the_band_path(monkeypatch, pair, spec, None, conditions=(None, 1), **check)
            assert_endpoints_match_the_band_path(monkeypatch, pair, spec, HAAR, conditions=(None,), **check)

    def test_several_blocks_match_the_band_path(self, blob_model, many_modes, monkeypatch):
        """Blocks of 2, 2 and 1 items, each with its own noise, frame and
        ``_to_atoms`` index."""
        monkeypatch.setattr(tensor, "BLOCK_VALUES", 2 * 3 * 32 * 32)
        for spec, _, _, pair in (blob_model, many_modes):
            assert_endpoints_match_the_band_path(monkeypatch, pair, spec, HAAR, "heun", conditions=(1,), batch=5)

    @pytest.mark.parametrize("cfg", [PYRAMID3, HAAR], ids=["pyramid3", "haar"])
    def test_a_restricted_mixture_steps_in_the_span_of_all_its_atoms(self, blob_model, monkeypatch, cfg):
        """The pair of a subset of 6 of the 8 components: its cells pick 6 of
        the A = 8 atoms, in another order, and its span holds all 8."""
        spec, mix, labels, _ = blob_model
        idx = [7, 1, 2, 4, 6, 5]
        sub = mix.restricted(idx)
        pair = make_denoiser_pair(sub, labels[idx])
        span = span_of(pair, cfg, spec.image_shape)
        assert len(span.mix.table) == mix.n_components and sub.table is mix.table
        assert sub.cells.tolist() == [[k] for k in idx]
        assert_endpoints_match_the_band_path(monkeypatch, pair, spec, cfg, "heun")

    @pytest.mark.parametrize("cfg", [PYRAMID2, HAAR], ids=["pyramid2", "haar"])
    @pytest.mark.parametrize("sampler", ["euler", "heun"])
    def test_factored_endpoints_match_the_band_path(self, many_modes, monkeypatch, cfg, sampler):
        spec, mix, _, pair = many_modes
        assert mix.table is None
        assert_endpoints_match_the_band_path(monkeypatch, pair, spec, cfg, sampler, conditions=(0, 3), batch=3)

    def test_a_restricted_factored_mixture_steps_in_the_planes_of_its_parent(self, many_modes, monkeypatch):
        """A subset of 300 of the 1024 components in shuffled order: its
        cells are unsorted, and its span lifts all the parent's planes."""
        spec, mix, labels, _ = many_modes
        idx = np.random.default_rng(5).permutation(mix.n_components)[:300]
        sub = mix.restricted(idx)
        assert np.any(np.diff(sub.cells[:, 0]) < 0) and sub.rows is mix.rows
        pair = make_denoiser_pair(sub, labels[idx])
        assert_endpoints_match_the_band_path(monkeypatch, pair, spec, HAAR, "heun", conditions=(0, 3), batch=3)

    def test_lifted_basis_lifts_the_means(self, blob_model):
        _, mix, _, _ = blob_model
        basis = analytic._lifted_basis(mix, operator(PYRAMID3, 32, 32)[1])
        k = mix.n_components
        assert basis.shape == (2 * k, mix.dim)
        assert np.array_equal(basis[:k], mix.table)
        assert np.abs(basis[k:] - lifted_planes(mix, PYRAMID3).reshape(k, -1)).max() <= 1e-14

    @pytest.mark.parametrize("cfg", [PYRAMID3, HAAR], ids=["pyramid3", "haar"])
    def test_factored_lifted_basis_is_small_and_lifts_the_planes(self, many_modes, cfg):
        """The lifted factors of the 19 x 19 planes hold at most 40 KB, not a
        (2A, D) array, and give L·plane for every plane:
        Σ_k outer(column r of left block k, row q of right block k)."""
        spec, mix, _, _ = many_modes
        left, right = analytic._lifted_basis(mix, operator(cfg, 32, 32)[1])
        nr, nq, (c, h, w), n = len(mix.rows), len(mix.cols), spec.image_shape, len(cfg.scales) - 1
        assert left.shape == (h, (n + 1) * nr) and right.shape == (n + 1, nq, w)
        assert left.nbytes + right.nbytes <= 40_000
        assert np.array_equal(left[:, :nr], mix.rows.T) and np.array_equal(right[0], mix.cols)
        want = lifted_planes(mix, cfg)
        got = np.einsum("hkr,kqw->rqhw", left.reshape(h, n + 1, nr)[:, 1:], right[1:])
        assert np.abs(got.reshape(-1, 1, h, w) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize(
        "shape, rank", [((16, 300), 16), ((16, 300), 5), ((40, 12), 12), ((40, 12), 7), ((3, 3), 0), ((1, 1), 1)]
    )
    def test_row_space_is_the_svd_row_space(self, shape, rank):
        """Against LAPACK's SVD: the rank by ``matrix_rank``'s rule on rows
        scaled to a largest entry of 1, and the same span, for wide and tall
        matrices, a rank-deficient one with a row 1e-9 the size of the others,
        and a zero one."""
        gen = np.random.default_rng(rank)
        a = gen.standard_normal((shape[0], rank)) @ gen.standard_normal((rank, shape[1]))
        a[0] *= 1e-9
        q = _row_space(a)
        unit = a / np.maximum(np.abs(a).max(axis=1, keepdims=True), np.finfo(float).tiny)
        want = np.linalg.svd(unit)[2][: np.linalg.matrix_rank(unit)]
        assert len(q) == len(want) == rank
        assert np.abs(q @ q.T - np.eye(rank)).max(initial=0.0) <= 1e-14
        assert np.abs(want - want @ q.T @ q).max(initial=0.0) <= 1e-12

    def test_dense_span_is_an_orthonormal_frame_of_the_basis(self, blob_model):
        """Rank 9 under pyramid(3): the 16 rows of [atoms; L·atoms] lie in
        9 orthonormal rows, cached read-only for the last guidance."""
        spec, mix, _, pair = blob_model
        span = span_of(pair, PYRAMID3, spec.image_shape)
        basis = analytic._lifted_basis(mix, operator(PYRAMID3, 32, 32)[1])
        q = span.q
        assert q.shape == (9, mix.dim) and span.mix.image_shape == (1, 2, 10)
        assert np.abs(q @ q.T - np.eye(9)).max() <= 1e-14
        assert np.abs(basis - basis @ q.T @ q).max() <= 1e-13 * np.abs(basis).max()
        planes = span.basis.reshape(-1, 2, 10)  # the coordinates in row 0, zeros elsewhere
        assert np.abs(planes[:, 0, :-1] - basis @ q.T).max() <= 1e-14 * np.abs(basis).max()
        assert not (np.any(planes[:, 0, -1]) or np.any(planes[:, 1])) and not q.flags.writeable
        assert np.shares_memory(span.mix.table, span.basis)
        assert np.array_equal(span.mix.table, span.basis[: mix.n_components])
        assert span_of(pair, replace(PYRAMID3, parallel_weights=(1.0,) * 4), spec.image_shape) is span
        assert_frame(span, np.random.default_rng(1).standard_normal((4,) + spec.image_shape))
        # the pair keeps the span of the last guidance only
        assert span_of(pair, HAAR, spec.image_shape) is not span and list(pair.spans) == [(HAAR.transform, HAAR.scales)]

    def test_factored_span_is_16_by_16_plane_coordinates_under_haar(self, many_modes):
        spec, mix, _, pair = many_modes
        span = span_of(pair, HAAR, spec.image_shape)
        q_h, q_w = span.q
        assert q_h.shape == (32, 16) and q_w.shape == (16, 32) and span.mix.image_shape == (1, 17, 17)
        for q in (q_h.T, q_w):
            assert np.abs(q @ q.T - np.eye(16)).max() <= 1e-14
        left, right = analytic._lifted_basis(mix, operator(HAAR, 32, 32)[1])
        assert np.abs(left - q_h @ q_h.T @ left).max() <= 1e-13 * np.abs(left).max()
        assert np.abs(right - right @ q_w.T @ q_w).max() <= 1e-13 * np.abs(right).max()
        assert_frame(span, np.random.default_rng(1).standard_normal((4,) + spec.image_shape))

    @pytest.mark.parametrize("sampler", ["euler", "heun"])
    def test_span_of_the_whole_space(self, monkeypatch, sampler):
        """One 1 x 1 x 1 Gaussian (unguided) spans its space, so z_⊥ is
        exactly zero; three 1 x 2 x 2 components and their Haar lifts, which
        add the constant plane, span all four dimensions."""
        single = make_denoiser_pair(mixture([1.0], np.full((1, 1, 1, 1), 0.7), [2.0]), [0])
        span = span_of(single, None, (1, 1, 1))
        noise = initial_noise(4, 6, (1, 1, 1), 80.0).data.copy()
        span.project(noise)
        assert span.q.shape == (1, 1) and not np.any(noise)
        spec = BlobTextureSpec(height=1, width=1, channels=1, centers=((0.0, 0.0),), n_classes=1)
        assert_endpoints_match_the_band_path(monkeypatch, single, spec, None, sampler, conditions=(None, 0))
        means = np.random.default_rng(3).standard_normal((3, 1, 2, 2))
        pair = make_denoiser_pair(mixture([0.3, 0.3, 0.4], means, [0.3, 0.3, 0.3]), [0, 1, 1])
        cfg = GuidanceConfig(transform=TransformKind.haar(), scales=(3.0, 0.5))
        assert span_of(pair, cfg, (1, 2, 2)).q.shape == (4, 4)
        spec = replace(spec, height=2, width=2, centers=((0.0, 0.0),))
        assert_endpoints_match_the_band_path(monkeypatch, pair, spec, cfg, sampler)

    def test_threads_alternating_guidance_get_their_own_span(self):
        spec = acceptance_spec()
        mix = blob_mixture_from_spec(spec)

        def run(cfg):
            return SampleRunConfig(
                steps=3, schedule=ACCEPTANCE_SCHEDULE, seed=6, batch=2, shape=spec.image_shape,
                guidance=cfg, condition=1, sampler="euler",
            )

        want = {cfg: sample(make_denoiser_pair(mix, class_labels(spec)), run(cfg)).data.tobytes() for cfg in (PYRAMID3, HAAR)}
        configs = [(PYRAMID3, HAAR)[i % 2] for i in range(24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                pair = make_denoiser_pair(mix, class_labels(spec))
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(sample, pair, run(cfg)) for cfg in configs]
                    got = [f.result(timeout=60).data.tobytes() for f in futures]
                assert all(result == want[cfg] for result, cfg in zip(got, configs))
        finally:
            sys.setswitchinterval(interval)

    def test_which_pairs_have_a_span(self, blob_model, many_modes):
        spec, mix, labels, pair = blob_model
        factored = many_modes[3]
        for case_pair in (pair, factored):
            for cfg in (None, PYRAMID3, replace(HAAR, parallel_weights=(1.0, 1.0))):
                assert span_of(case_pair, cfg, spec.image_shape) is not None
            assert span_of(case_pair, replace(HAAR, parallel_weights=(0.5, 1.0)), spec.image_shape) is None
            assert span_of(case_pair, HAAR, (3, 16, 16)) is None
        autoguided = build_pair(Config({"autoguide.enabled": "true"}), mix, labels)
        for other in (DenoiserPair(cond=pair.cond, uncond=pair.uncond), autoguided):
            assert span_of(other, HAAR, spec.image_shape) is None
        unequal = make_denoiser_pair(mixture([0.5, 0.5], rng.normal(size=(2,) + SHAPE), [0.5, 0.6]), [0, 1])
        assert span_of(unequal, HAAR, SHAPE) is None and span_of(unequal, None, SHAPE) is None

    def test_a_guided_evaluation_takes_the_band_path(self, blob_model, many_modes, monkeypatch):
        """Outside ``sample``'s span a mixture pair's guided prediction is
        ``freqcfg_combine`` of ``both``, with or without a recorder."""
        spec = blob_model[0]
        for case_pair in (blob_model[3], many_modes[3]):
            assert band_path_ran(monkeypatch, case_pair, HAAR, spec.image_shape)
            assert band_path_ran(monkeypatch, case_pair, HAAR, spec.image_shape, recorder=NormRecorder())

    def test_a_recorded_run_takes_the_band_path_at_every_evaluation(self, blob_model, monkeypatch):
        """``analyze-norms`` keeps the trajectory of the band path, the Heun
        corrector's evaluations included, which record nothing."""
        spec, _, _, pair = blob_model
        batches = spy_combine_batches(monkeypatch)
        run = SampleRunConfig(
            steps=6, schedule=ACCEPTANCE_SCHEDULE, seed=4, batch=3, shape=spec.image_shape,
            guidance=HAAR, condition=0, sampler="heun",
        )
        recorder = NormRecorder()
        sample(pair, run, recorder=recorder)
        assert batches == [3] * (2 * run.steps - 1) and len(recorder.records) == run.steps

    @pytest.mark.parametrize("kind", ["dense", "factored"])
    def test_overflow_is_the_band_path_error(self, kind, monkeypatch):
        """The guided prediction overflows in the span too, so the block
        reruns in image space and raises the band path's error."""
        cfg = GuidanceConfig(transform=TransformKind.haar(), scales=(1.5e308, 1.5e308))
        if kind == "dense":
            # means ±1: Δ ≈ 2, which the scales lift past float64
            spec = BlobTextureSpec(height=4, width=4, channels=1, centers=((0.0, 0.0),), n_classes=1)
            pair = make_denoiser_pair(mixture([0.5, 0.5], np.stack([np.ones(SHAPE), -np.ones(SHAPE)]), [0.1, 0.1]), [0, 1])
        else:
            # the factors lift finitely (c_1 = 0), but (s_0 - 1)·Δ of the blobs of amplitude 10 does not
            spec, mix, _, pair = model_of(overflow_spec())
            assert mix.table is None
        assert span_of(pair, cfg, spec.image_shape) is not None
        run = SampleRunConfig(
            steps=2, schedule=NoiseSchedule.linear(1.0), seed=0, batch=2, shape=spec.image_shape,
            guidance=cfg, condition=0, sampler="euler",
        )
        batches = spy_combine_batches(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="guided output overflows float64") as exc:
                sample(pair, run)
        assert EXIT_CODES[exc.value.category] == 6 and batches == [2]

    def test_overflowing_lift_has_no_span(self):
        """L·means overflows, but Δ = 0 at z on a mean of the class: the band
        path gives d_c."""
        mix = mixture([0.5, 0.5], np.stack([np.zeros(SHAPE), np.full(SHAPE, 10.0)]), [0.1, 0.1])
        pair = make_denoiser_pair(mix, [0, 1])
        cfg = GuidanceConfig(transform=TransformKind.haar(), scales=(1.0, 1e308))
        z = Tensor4(np.full((1,) + SHAPE, 10.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert span_of(pair, cfg, SHAPE) is None
            out = guided_denoise(z, 0.2, 1.0, pair, cfg, condition=1)
        assert np.array_equal(out.data, pair.cond(z, 0.2, 1).data)

    def test_overflowing_factored_lift_has_no_span(self):
        """c_1·P_{h,1}·rowsᵀ overflows for blobs of amplitude 10, but Δ = 0
        at z on a mean of class 1, which alone has weight there: the band
        path's bytes, d_c."""
        spec, mix, labels, pair = model_of(overflow_spec())
        cfg = GuidanceConfig(transform=TransformKind.haar(), scales=(1.0, 1e308))
        z = Tensor4(all_means(mix)[[3, 9]])
        assert labels[[3, 9]].tolist() == [1, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert span_of(pair, cfg, spec.image_shape) is None
            out = guided_denoise(z, 0.02, 1.0, pair, cfg, condition=1)
            d_c, d_u = pair.both(z, 0.02, 1)
        assert np.array_equal(d_c.data, d_u.data)
        assert out.data.tobytes() == freqcfg_combine(d_c, d_u, cfg).data.tobytes()
        assert np.array_equal(out.data, pair.cond(z, 0.02, 1).data)


@pytest.mark.parametrize("subset", ["mixture", "restricted"])
def test_to_atoms_is_the_per_item_sum(many_modes, subset):
    """``_to_atoms`` equals a per-item ``np.add.at`` over the cells exactly,
    on the many-mode cells and on a restricted subset's unsorted cells."""
    _, mix, _, _ = many_modes
    if subset == "restricted":
        mix = mix.restricted(np.random.default_rng(2).permutation(mix.n_components)[:300])
    w = np.random.default_rng(3).random((5, mix.n_components))
    want = np.zeros((5, mix.n_atoms))
    for b in range(5):
        for t in range(mix.cells.shape[1]):
            np.add.at(want[b], mix.cells[:, t], w[b])
    index = analytic._atom_index(mix.cells, 5, mix.n_atoms)
    assert analytic._to_atoms(w, index, mix.n_atoms).tobytes() == want.tobytes()


class TestCachedConstants:
    @pytest.mark.parametrize(
        "spec",
        [BlobTextureSpec(centers=((8.0, 8.0), (24.0, 24.0)), n_classes=3), many_modes_spec()],
        ids=["dense", "many-modes"],
    )
    def test_values_and_read_only(self, spec):
        mix = blob_mixture_from_spec(spec)
        sub = mix.restricted([1, 4])
        if mix.table is not None:
            assert np.shares_memory(mix.table, mix.means) and mix.table.shape == (mix.n_components, mix.dim)
        for m in (mix, sub):
            flat = all_means(m).reshape(m.n_components, -1)
            assert np.array_equal(m.sq_norms, np.einsum("kd,kd->k", flat, flat))
            assert np.array_equal(m.log_weights, np.log(m.weights))
            assert m.image_shape == spec.image_shape and m.dim == np.prod(spec.image_shape)
            data = (m.table, getattr(m, "means", None), m.rows, m.cols, m.cells)
            for arr in (m.weights, m.scales, m.sq_norms, m.log_weights) + data:
                if arr is None:
                    continue
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0
        assert np.array_equal(sub.cells, mix.cells[[1, 4]])
        assert same_atoms(sub, mix)

    def test_factors_read_only_and_shared_by_restricted(self):
        mix = blob_mixture_from_spec(BlobTextureSpec(n_classes=3))  # 4 + 2·3 planes < K = 12
        sub = mix.restricted([1, 4, 11])
        assert sub.rows is mix.rows and sub.cols is mix.cols
        assert np.array_equal(sub.cells, mix.cells[[1, 4, 11]])
        for arr in (mix.rows, mix.cols, mix.cells, sub.cells):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert degrade(mix, 0.0, 1.0, seed=0).table is not None

    def test_factors_only_with_fewer_planes_than_components(self, many_modes):
        spec, mix, labels, pair = many_modes
        # 16 distinct bump rows (columns), a ones row and 2 gratings
        assert mix.rows.shape == (19, 32) and mix.cols.shape == (19, 32)
        assert mix.cells.shape == (1024, 2)
        for condition in range(spec.n_classes):
            sub = pair.class_mixture(condition)
            assert sub.rows is mix.rows and sub.cols is mix.cols
            assert np.array_equal(sub.cells, mix.cells[labels == condition])
        acceptance = blob_mixture_from_spec(acceptance_spec())  # 8 planes, K = 8
        single = mixture([1.0], np.zeros((1,) + SHAPE), [1.0])  # mixture.kind = single
        hand_built = IsotropicGaussianMixture(mix.weights, all_means(mix), mix.scales)
        for dense in (acceptance, single, degrade(mix, 0.0, 1.0, seed=0), hand_built, hand_built.restricted([3])):
            assert dense.rows is None and dense.cols is None and dense.cells.shape[1] == 1

    def test_restricted_copies_caller_indices(self):
        mix = mixture([0.5, 0.5], rng.normal(size=(2,) + SHAPE), [0.5, 0.5])
        idx = np.array([1])
        sub = mix.restricted(idx)
        idx[0] = 0
        assert sub.cells.tolist() == [[1]]


class TestMeansOnDemand:
    """No mixture but one given its means holds them: the others build
    them a chunk at a time in ``mean_chunks()``."""

    def test_constants_subsets_and_calls_build_no_means(self):
        spec = many_modes_spec()
        mix = blob_mixture_from_spec(spec)
        labels = class_labels(spec)
        pair = make_denoiser_pair(mix, labels)
        subs = [pair.class_mixture(c) for c in range(spec.n_classes)]
        subs.append(subs[1].restricted([5, 0, 17]))
        gen = np.random.default_rng(3)
        x = loop_mixture(spec)[1][gen.choice(1024, size=8)]
        z = Tensor4(x + spec.noise_scale * gen.standard_normal(x.shape))
        pair.both(z, 0.3, 1)
        posterior_mean(z, 0.3, subs[-1])
        for m in [mix] + subs:
            m.n_components, m.image_shape, m.dim, m.sq_norms, m.cells
            mode_report(z, m, tau=1.0)
        assert all("means" not in vars(m) for m in [mix] + subs)
        # the class subsets take the parent's constants: the bytes a dense subset computes
        dense = IsotropicGaussianMixture(mix.weights, all_means(mix), mix.scales)
        for c, sub in enumerate(subs[:-1]):
            want = dense.restricted(np.flatnonzero(labels == c))
            for name in ("weights", "scales", "sq_norms", "log_weights"):
                assert getattr(sub, name).tobytes() == getattr(want, name).tobytes()
            assert mode_report(z, sub, tau=1.7) == mode_report(z, want, tau=1.7)

    @pytest.mark.parametrize("kind", ["factored", "dense"])
    def test_subset_means_are_the_spec_means(self, kind):
        """A subset of a subset walks its own means, the rows of the whole
        build, from the data it shares with its parents."""
        spec = many_modes_spec()
        mix = blob_mixture_from_spec(spec)
        whole = all_means(mix)
        if kind == "dense":
            mix = IsotropicGaussianMixture(mix.weights, whole, mix.scales)
        middle = mix.restricted([1023, 6, 300])
        sub = middle.restricted([2, 0])
        assert not hasattr(sub, "means") and not hasattr(middle, "means")
        assert same_atoms(sub, mix)
        assert np.array_equal(sub.cells, mix.cells[[300, 1023]])
        _, want = loop_mixture(spec)
        assert np.abs(all_means(sub) - want[[300, 1023]]).max() <= oracle_bound(want)
        assert all_means(sub).tobytes() == whole[[300, 1023]].tobytes()
        # a class subset of 7 blocks: each chunk comes with its range of components
        members = mix.restricted(range(3, 1024, 4))
        spans = [items for items, _ in members.mean_chunks()]
        assert len(spans) == 7 and spans == tensor.blocks(256, spec.image_shape)
        assert all_means(members).tobytes() == whole[3::4].tobytes()

    def test_build_subset_and_joint_call_stay_small(self):
        """About 36 MiB when the build kept all K means and each subset its own rows."""
        spec = many_modes_spec()
        z = Tensor4(np.random.default_rng(5).standard_normal((32,) + spec.image_shape))
        tracemalloc.start()
        try:
            mix = blob_mixture_from_spec(spec)
            pair = make_denoiser_pair(mix, class_labels(spec))
            pair.class_mixture(0)
            pair.both(z, 3.0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_factored_model_holds_only_its_factors(self):
        """2.27 MiB when the model also kept the blob planes and textures
        its means were summed from."""
        tracemalloc.start()
        try:
            mix = blob_mixture_from_spec(many_modes_spec())
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert mix.table is None and "means" not in vars(mix)
        assert held < 2**19, f"{held / 2**20:.2f} MiB"

    def test_mixtures_compare_by_identity(self):
        for spec in (acceptance_spec(), many_modes_spec()):
            mix, again = blob_mixture_from_spec(spec), blob_mixture_from_spec(spec)
            assert mix == mix and mix != again
            assert hash(mix) == hash(mix) and len({mix, again, mix}) == 2
            sub = mix.restricted([0])
            assert same_atoms(sub, mix) and sub != mix.restricted([0])

    def test_repr_builds_no_means(self, many_modes):
        """The dataclass repr read ``means``: 24.06 MiB for the 1024-component
        model."""
        _, mix, _, pair = many_modes
        dense = mixture(mix.weights[:3], np.zeros((3,) + SHAPE), mix.scales[:3])
        nested = pair.class_mixture(1).restricted([3, 0])
        tracemalloc.start()
        try:
            for m in (mix, pair.class_mixture(2), nested, dense.restricted([2, 0]).restricted([1])):
                assert repr(m).startswith("IsotropicGaussianMixture(weights=") and str(m) == repr(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{peak / 2**20:.2f} MiB"
        assert not hasattr(mix, "means") and not hasattr(nested, "means")


@pytest.fixture(scope="module")
def many_modes_dense(many_modes):
    """The 1024-component model built from its means, labels and pair."""
    spec, mix, labels, _ = many_modes
    dense = IsotropicGaussianMixture(mix.weights, all_means(mix), mix.scales)
    return spec, dense, labels, make_denoiser_pair(dense, labels)


class TestOneClassPosterior:
    """A class subset of either kind shares its parent's data, so ``cond`` and
    the joint pass are one definition of the class posterior."""

    @pytest.mark.parametrize("name", ["acceptance", "many_modes_dense", "many_modes"])
    def test_cond_is_both_cond(self, request, name):
        if name == "acceptance":
            spec, mix, labels, pair = model_of(acceptance_spec())
        else:
            spec, mix, labels, pair = request.getfixturevalue(name)
        assert (mix.table is not None) == (name != "many_modes")
        gen = np.random.default_rng(17)
        for batch in (1, 3, 25, 42):
            x = gen.standard_normal((batch,) + spec.image_shape)
            for sigma in (80.0, 3.0, 0.3, 0.02):
                z = Tensor4(sigma * x)
                for condition in range(spec.n_classes):
                    got = pair.both(z, sigma, condition)[0].data.tobytes()
                    assert got == pair.cond(z, sigma, condition).data.tobytes(), (batch, sigma, condition)

    def test_dense_pair_holds_no_means(self, many_modes_dense):
        """25.9 MiB when each dense class subset copied its means."""
        spec, dense, labels, _ = many_modes_dense
        z = Tensor4(np.random.default_rng(2).standard_normal((1,) + spec.image_shape))
        tracemalloc.start()
        try:
            pair = make_denoiser_pair(dense, labels)
            for condition in range(spec.n_classes):
                pair.both(z, 0.3, condition)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{peak / 2**20:.2f} MiB"
        for sub in pair.by_class.values():
            assert sub.table is dense.table and not hasattr(sub, "means")


@pytest.mark.parametrize("path", ["factored", "dense"])
def test_clamped_exponent_keeps_bytes(many_modes, monkeypatch, path):
    """At sigma = 0.3 some logits fall where np.exp is subnormal; setting them
    to -inf leaves every output byte as it was without the clamp."""
    spec, mix, labels, pair = many_modes
    means = all_means(mix)
    if path == "dense":
        mix = IsotropicGaussianMixture(mix.weights, means, mix.scales)
        pair = make_denoiser_pair(mix, labels)
    sigma = 0.3
    gen = np.random.default_rng(11)
    x = means[gen.choice(np.flatnonzero(labels == 0), size=4)]
    z = Tensor4(x + spec.noise_scale * gen.standard_normal(x.shape) + sigma * gen.standard_normal(x.shape))
    # equal weights and scales: the logits less their row maximum are -Δ‖z - m_k‖² / 2var
    _, sq = analytic._sq_dists(z.data.reshape(4, -1), mix)
    logits = -(sq - sq.min(axis=1, keepdims=True)) / (2 * (spec.noise_scale**2 + sigma**2))
    assert np.any((logits < analytic.EXP_FLOOR) & (np.exp(logits) > 0))

    def outputs():
        return [t.data.copy() for c in range(spec.n_classes) for t in pair.both(z, sigma, c)]

    clamped = outputs()
    monkeypatch.setattr(analytic, "EXP_FLOOR", -np.inf)
    for got, want in zip(clamped, outputs()):
        assert got.tobytes() == want.tobytes()


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

    def test_seed_outside_the_philox_key_range_is_usage_error(self):
        mix = mixture([1.0], np.zeros((1,) + SHAPE), [0.7])
        for seed in (-1, 2**128):
            with pytest.raises(UsageError, match=r"outside Philox's range \[0, 2\*\*128\)"):
                degrade(mix, 0.3, 1.0, seed=seed)
        noise = np.random.Generator(np.random.Philox(key=2**128 - 1)).standard_normal((1,) + SHAPE)
        assert np.array_equal(degrade(mix, 0.3, 1.0, seed=2**128 - 1).means, 0.3 * noise)


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
    """Reference build: one literal 2-D blob and grating per (center, class)
    component."""
    block = spec.blob_block
    yy = block * (np.arange(spec.height // block, dtype=np.float64)[:, None] + 0.5) - 0.5
    xx = block * (np.arange(spec.width // block, dtype=np.float64)[None, :] + 0.5) - 0.5
    y = np.arange(spec.height, dtype=np.float64)[:, None]
    x = np.arange(spec.width, dtype=np.float64)[None, :]
    means, weights = [], []
    for j, (cy, cx) in enumerate(spec.centers):
        bump = spec.blob_amplitude * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * spec.blob_radius**2)
        )
        blob = np.kron(bump, np.ones((block, block)))
        for k in range(spec.n_classes):
            # even classes vary along x, odd along y; the phase alternates per center
            phase = 2.0 * np.pi * spec.texture_freq * (x if k % 2 == 0 else y) + np.pi * (j % 2)
            texture = spec.texture_amplitude * np.cos(phase)
            means.append(np.broadcast_to(blob + texture, spec.image_shape))
            weights.append(spec.center_weights(k)[j] / spec.n_classes)
    return np.array(weights), np.stack(means)


def oracle_bound(means: np.ndarray) -> float:
    """How far the separable means may lie from the 2-D oracle: each blob is
    amplitude·exp(-a)·exp(-b) in place of amplitude·exp(-(a + b)), a few ulp
    of the largest mean value."""
    return 4 * np.finfo(np.float64).eps * np.abs(means).max()


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
        # factors: kept only when the J blobs and min(2, J) textures per class
        # number fewer than the K components (odd-3x4 and many-modes)
        n_planes = len(spec.centers) + min(2, len(spec.centers)) * spec.n_classes
        assert (mix.table is None) == (n_planes < len(means))
        if mix.table is None:
            assert mix.rows.shape[1] == spec.height and mix.cols.shape[1] == spec.width
            assert mix.cells.shape == (len(means), 2)
        got = all_means(mix)
        assert np.abs(got - means).max() <= oracle_bound(means)
        # factored sq_norms, from chunks of means, are those of the whole build
        built = IsotropicGaussianMixture(mix.weights, got, mix.scales)
        assert mix.sq_norms.tobytes() == built.sq_norms.tobytes()
        # factored means, built a block of components at a time, are one build of all
        whole = analytic._factor_means(**analytic._separable_factors(spec), channels=spec.channels)
        assert whole.tobytes() == got.tobytes()
        assert mix.weights.tobytes() == mixture(weights, means, mix.scales).weights.tobytes()
        assert mix.scales.tobytes() == np.full(len(means), spec.noise_scale).tobytes()
