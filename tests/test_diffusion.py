import warnings

import numpy as np
import pytest

from freqguide import (
    DenoiserPair,
    DomainError,
    GuidanceConfig,
    IsotropicGaussianMixture,
    NoiseSchedule,
    SampleRunConfig,
    Tensor4,
    TransformKind,
    UsageError,
    initial_noise,
    make_denoiser_pair,
    sample,
)
from freqguide.diffusion import item_noise

rng = np.random.default_rng(3)


def single_gaussian(mu, s, shape=(1, 4, 4)):
    return IsotropicGaussianMixture(
        weights=np.array([1.0]), means=np.full((1,) + shape, mu), scales=np.array([s])
    )


def closed_form_endpoint(z0, mu, s, sigma_max):
    return mu + (z0 - mu) * s / np.sqrt(sigma_max**2 + s**2)


class TestSchedules:
    def test_linear_endpoints(self):
        assert list(NoiseSchedule.linear(10.0).grid(4)) == [10.0, 7.5, 5.0, 2.5, 0.0]

    def test_karras_endpoints(self):
        grid = NoiseSchedule.karras(0.02, 10.0, 7.0).grid(5)
        assert grid[0] == pytest.approx(10.0, rel=1e-12)
        assert grid[-2] == pytest.approx(0.02, rel=1e-12)
        assert grid[-1] == 0.0

    @pytest.mark.parametrize("kind", ["linear", "karras"])
    def test_grid_strictly_decreasing_ends_at_zero(self, kind):
        sched = (
            NoiseSchedule.linear(10.0) if kind == "linear" else NoiseSchedule.karras(0.02, 10.0)
        )
        for steps in (1, 2, 7, 40):
            grid = sched.grid(steps)
            assert len(grid) == steps + 1
            assert grid[-1] == 0.0
            assert np.all(np.diff(grid) < 0)
            assert grid[0] == pytest.approx(10.0, rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            NoiseSchedule.karras(1.0, 0.5)
        with pytest.raises(DomainError):
            NoiseSchedule.karras(0.1, 1.0, rho=0.5)
        with pytest.raises(DomainError):
            NoiseSchedule.linear(-1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: NoiseSchedule.linear(float("nan")),
            lambda: NoiseSchedule.linear(float("inf")),
            lambda: NoiseSchedule.karras(0.02, float("inf")),
            lambda: NoiseSchedule.karras(float("nan"), 80.0),
            lambda: NoiseSchedule.karras(0.02, 80.0, rho=float("inf")),
            lambda: NoiseSchedule.karras(0.02, 80.0, rho=float("nan")),
        ],
        ids=["linear-nan", "linear-inf", "karras-max-inf", "karras-min-nan", "rho-inf", "rho-nan"],
    )
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(DomainError):
            make()


class TestKarrasGrid:
    def test_single_step(self):
        assert list(NoiseSchedule.karras(1.0, 4.0, 7.0).grid(1)) == [4.0, 0.0]

    def test_rho_one_is_arithmetic(self):
        got = NoiseSchedule.karras(1.0, 4.0, 1.0).grid(3)
        assert list(got) == pytest.approx([4.0, 2.5, 1.0, 0.0])

    def test_strictly_decreasing_random_params(self):
        for _ in range(20):
            lo = float(rng.uniform(0.001, 0.5))
            hi = float(rng.uniform(1.0, 100.0))
            rho = float(rng.uniform(1.0, 10.0))
            steps = int(rng.integers(2, 40))
            grid = NoiseSchedule.karras(lo, hi, rho).grid(steps)
            assert np.all(np.diff(grid) < 0)

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            NoiseSchedule.karras(0.0, 1.0, 7.0)
        with pytest.raises(UsageError):
            NoiseSchedule.karras(0.1, 1.0, 7.0).grid(0)


class TestOdeRhs:
    def test_single_gaussian_drift_formula(self):
        # the drift the sampler integrates, (z - x0hat) / sigma, is the
        # probability-flow ODE of a single Gaussian in closed form
        mu, s, sigma = 0.4, 0.8, 1.3
        mix = single_gaussian(mu, s)
        z = Tensor4(rng.normal(size=(2, 1, 4, 4)))
        from freqguide import posterior_mean

        drift = (z.data - posterior_mean(z, sigma, mix).data) / sigma
        expected = sigma * (z.data - mu) / (s**2 + sigma**2)
        assert np.abs(drift - expected).max() < 1e-12


class TestNoise:
    def test_item_streams_independent_of_batch_size(self):
        small = initial_noise(5, 2, (1, 3, 3), 1.0)
        big = initial_noise(5, 6, (1, 3, 3), 1.0)
        assert np.array_equal(small.data, big.data[:2])

    def test_seed_changes_noise(self):
        a = initial_noise(1, 2, (1, 4, 4), 1.0)
        b = initial_noise(2, 2, (1, 4, 4), 1.0)
        assert not np.array_equal(a.data, b.data)

    def test_counter_based_reproducible(self):
        assert np.array_equal(item_noise(9, 3, (2, 2, 2)), item_noise(9, 3, (2, 2, 2)))


class TestSampler:
    def test_one_step_collapses_to_prediction(self):
        c = 0.37
        const = Tensor4(np.full((2, 1, 4, 4), c))
        pair = DenoiserPair(cond=lambda z, s, y=None: const, uncond=lambda z, s: const)
        run = SampleRunConfig(
            steps=1, schedule=NoiseSchedule.linear(5.0), seed=0, batch=2, shape=(1, 4, 4),
            sampler="euler",
        )
        out = sample(pair, run)
        assert np.abs(out.data - c).max() < 1e-12

    @pytest.mark.parametrize("sampler", ["euler", "heun"])
    def test_non_finite_state_is_domain_error(self, sampler):
        huge = Tensor4(np.full((1, 1, 2, 2), 1e308))
        pair = DenoiserPair(cond=lambda z, s, y=None: huge, uncond=lambda z, s: huge)
        run = SampleRunConfig(
            steps=2, schedule=NoiseSchedule.linear(0.5), seed=0, batch=1, shape=(1, 2, 2),
            sampler=sampler,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="sampler state"):
                sample(pair, run)

    def test_guided_sample_makes_one_pair_call_per_evaluation(self):
        pair = make_denoiser_pair(single_gaussian(0.7, 2.0), [0])
        log = []

        class SpyPair(DenoiserPair):
            def both(self, z, sigma, condition=None):
                log.append("both")
                return pair.both(z, sigma, condition)

        def cond(z, sigma, condition=None):
            log.append("cond")
            return pair.cond(z, sigma, condition)

        guidance = GuidanceConfig(
            transform=TransformKind.haar(), scales=(2.0, 2.0), interval=(0.7, 0.3)
        )
        run = SampleRunConfig(
            steps=10, schedule=NoiseSchedule.linear(5.0), seed=1, batch=2, shape=(1, 4, 4),
            guidance=guidance, condition=0, sampler="heun",
        )
        sample(SpyPair(cond=cond, uncond=None), run)
        # heun: two evaluations per step, one on the last; each is one call
        # of ``both`` (gate open) or of ``cond`` (gate closed), never uncond
        assert len(log) == 19
        assert log.count("both") > 0 and log.count("cond") > 0

    def test_closed_form_endpoint_heun(self):
        mu, s = 0.7, 2.0
        sched = NoiseSchedule.karras(0.01, 10.0, 7.0)
        pair = make_denoiser_pair(single_gaussian(mu, s), [0])
        run = SampleRunConfig(
            steps=64, schedule=sched, seed=7, batch=4, shape=(1, 4, 4), sampler="heun"
        )
        out = sample(pair, run)
        z0 = initial_noise(7, 4, (1, 4, 4), 10.0)
        exact = closed_form_endpoint(z0.data, mu, s, 10.0)
        rel = np.linalg.norm(out.data - exact) / np.linalg.norm(exact)
        assert rel < 1e-3

    def test_order_of_accuracy(self):
        mu, s = 0.7, 2.0
        sched = NoiseSchedule.karras(0.01, 10.0, 7.0)
        pair = make_denoiser_pair(single_gaussian(mu, s), [0])

        def err(sampler, steps):
            run = SampleRunConfig(
                steps=steps, schedule=sched, seed=7, batch=4, shape=(1, 4, 4), sampler=sampler
            )
            out = sample(pair, run)
            z0 = initial_noise(7, 4, (1, 4, 4), 10.0)
            exact = closed_form_endpoint(z0.data, mu, s, 10.0)
            return np.linalg.norm(out.data - exact) / np.linalg.norm(exact)

        euler_ratio = err("euler", 128) / err("euler", 64)
        heun_ratio = err("heun", 128) / err("heun", 64)
        assert 0.4 <= euler_ratio <= 0.6
        assert 0.18 <= heun_ratio <= 0.33

    def test_deterministic_across_runs(self):
        pair = make_denoiser_pair(single_gaussian(0.0, 1.0), [0])
        run = SampleRunConfig(
            steps=8, schedule=NoiseSchedule.karras(0.02, 10.0), seed=11, batch=3, shape=(1, 4, 4)
        )
        a = sample(pair, run)
        b = sample(pair, run)
        assert a.data.tobytes() == b.data.tobytes()

    def test_guidance_neutrality_at_unit_scale(self):
        mix = IsotropicGaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.stack([np.zeros((1, 8, 8)), np.ones((1, 8, 8))]),
            scales=np.array([0.3, 0.3]),
        )
        pair = make_denoiser_pair(mix, [0, 1])
        sched = NoiseSchedule.karras(0.02, 10.0)
        base = dict(
            steps=12, schedule=sched, seed=2, batch=2, shape=(1, 8, 8), condition=0,
            sampler="euler",
        )
        bypass = sample(pair, SampleRunConfig(**base, guidance=None))
        for kind in (TransformKind.pyramid(1), TransformKind.haar()):
            routed = sample(
                pair,
                SampleRunConfig(
                    **base, guidance=GuidanceConfig(transform=kind, scales=(1.0, 1.0))
                ),
            )
            assert np.abs(routed.data - bypass.data).max() <= 1e-9
        # manual loop through plain CFG, d_u + w (d_c - d_u), at w = 1
        sigmas = sched.grid(12)
        z = initial_noise(2, 2, (1, 8, 8), float(sigmas[0])).data
        for i in range(12):
            s_cur, s_next = float(sigmas[i]), float(sigmas[i + 1])
            d_c = pair.cond(Tensor4(z), s_cur, 0)
            d_u = pair.uncond(Tensor4(z), s_cur)
            x0 = d_u.data + 1.0 * (d_c.data - d_u.data)
            z = z + (s_next - s_cur) * (z - x0) / s_cur
        assert np.abs(z - bypass.data).max() <= 1e-9

    def test_schedule_endpoints_honored(self):
        seen = []

        def cond(z, s, y=None):
            seen.append(s)
            return Tensor4(np.zeros(z.dims))

        pair = DenoiserPair(cond=cond, uncond=lambda z, s: Tensor4(np.zeros(z.dims)))
        run = SampleRunConfig(
            steps=4, schedule=NoiseSchedule.linear(3.0), seed=0, batch=1, shape=(1, 4, 4),
            sampler="heun",
        )
        sample(pair, run)
        assert seen[0] == 3.0
        assert min(seen) > 0.0  # denoiser never evaluated at sigma = 0

    def test_heun_final_step_falls_back_to_euler(self):
        calls = []

        def cond(z, s, y=None):
            calls.append(s)
            return Tensor4(np.zeros(z.dims))

        pair = DenoiserPair(cond=cond, uncond=lambda z, s: Tensor4(np.zeros(z.dims)))
        run = SampleRunConfig(
            steps=3, schedule=NoiseSchedule.linear(3.0), seed=0, batch=1, shape=(1, 4, 4),
            sampler="heun",
        )
        sample(pair, run)
        # 2 evaluations per step except the final one
        assert len(calls) == 2 * 3 - 1

    def test_config_validation(self):
        sched = NoiseSchedule.linear(1.0)
        with pytest.raises(UsageError):
            SampleRunConfig(steps=0, schedule=sched, seed=0, batch=1, shape=(1, 4, 4))
        with pytest.raises(UsageError):
            SampleRunConfig(steps=1, schedule=sched, seed=-1, batch=1, shape=(1, 4, 4))
        with pytest.raises(UsageError):
            SampleRunConfig(steps=1, schedule=sched, seed=0, batch=1, shape=(1, 4, 4), sampler="rk4")
