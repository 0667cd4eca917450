import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import ACCEPTANCE_SCHEDULE, acceptance_spec

from freqguide import (
    DenoiserPair,
    DomainError,
    GuidanceConfig,
    IsotropicGaussianMixture,
    NoiseSchedule,
    SampleRunConfig,
    Tensor4,
    TransformKind,
    NormRecorder,
    UsageError,
    blob_mixture_from_spec,
    class_labels,
    freqcfg_combine,
    initial_noise,
    make_denoiser_pair,
    sample,
)
from freqguide import diffusion, tensor
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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_key_outside_the_philox_range_is_usage_error(self, seed):
        """(seed << 64) + item must be a Philox key in [0, 2**128)."""
        with pytest.raises(UsageError, match="outside Philox's range"):
            initial_noise(seed, 2, (1, 2, 2), 1.0)

    @pytest.mark.parametrize("seed, first", [(0, -1), (1, -1), (1, 2**64 - 1)])
    def test_item_outside_its_range_is_usage_error(self, seed, first):
        """Item -1 of seed 1 had the stream of item 2**64 - 1 of seed 0, and
        item 2**64 of seed 1 that of item 0 of seed 2."""
        with pytest.raises(UsageError, match=r"item -?\d+ is outside \[0, 2\*\*64\)"):
            initial_noise(seed, 2, (1, 2, 2), 1.0, first=first)

    def test_items_at_both_ends_of_the_range_draw(self):
        assert not np.array_equal(item_noise(1, 0, (1, 2, 2)), item_noise(1, 2**64 - 1, (1, 2, 2)))


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

    @staticmethod
    def count_scans(monkeypatch, pair) -> tuple[int, int]:
        """(image-sized finiteness scans, steps) of a guided 5-step run."""
        guidance = GuidanceConfig(transform=TransformKind.haar(), scales=(2.0, 2.0))
        run = SampleRunConfig(
            steps=5, schedule=NoiseSchedule.linear(5.0), seed=1, batch=2, shape=(1, 4, 4),
            guidance=guidance, condition=0, sampler="euler",
        )
        scans = []
        isfinite = np.isfinite

        def spy(x, *args, **kwargs):
            if np.shape(x) == (2, 1, 4, 4):
                scans.append(x)
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", spy)
        sample(pair, run)
        return len(scans), run.steps

    def test_each_array_is_scanned_for_finiteness_once(self, monkeypatch):
        scans, steps = self.count_scans(monkeypatch, make_denoiser_pair(single_gaussian(0.7, 2.0), [0]))
        # the initial noise and the endpoint made from the state's
        # coordinates: every step runs on those coordinates alone
        assert scans == 2

    def test_each_array_is_scanned_for_finiteness_once_on_the_band_path(self, monkeypatch):
        mixture_pair = make_denoiser_pair(single_gaussian(0.7, 2.0), [0])
        pair = DenoiserPair(cond=mixture_pair.cond, uncond=mixture_pair.uncond)
        scans, steps = self.count_scans(monkeypatch, pair)
        # the initial noise, then per step both denoiser outputs, the guided
        # output and the new state
        assert scans == 1 + 4 * steps

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


class TestGuidedEndpoint:
    """Per-band CFG between two Gaussians with one spread s, N(m_c, s²I) and
    N(m_u, s²I), has an exact endpoint.  Δ(σ) = σ²/(s² + σ²)·δ with
    δ = m_c − m_u does not depend on z, so with M·x = freqcfg_combine(x, 0) − x
    the guided flow is linear in y = z − m_c − Mδ, and

        z(0) = m_c + Mδ + (z_T − m_c − Mδ)·s/√(s² + σ_max²).

    Under an interval gate it holds piecewise: on a segment from σ_j to σ
    with the gate fixed, z(σ) = a_j + (z(σ_j) − a_j)·√((s² + σ²)/(s² + σ_j²))
    with a_j = m_c + M_j·δ, M_j = 0 while the gate is shut."""

    SHAPE = (3, 16, 16)
    S, SIGMA_MAX = 0.5, 20.0
    SCHEDULE = NoiseSchedule.karras(0.002, 20.0, 7.0)
    CONFIGS = {
        "pyramid2": GuidanceConfig(transform=TransformKind.pyramid(2), scales=(3.0, 1.5, 0.5)),
        "haar": GuidanceConfig(transform=TransformKind.haar(), scales=(4.0, 1.0)),
    }

    def setup_method(self):
        gen = np.random.default_rng(21)
        self.m_c, self.m_u = gen.uniform(-1.0, 1.0, self.SHAPE), gen.uniform(-1.0, 1.0, self.SHAPE)

        def posterior(m):
            return lambda z, sigma, *condition: Tensor4(m + self.S**2 / (self.S**2 + sigma**2) * (z.data - m))

        self.pair = DenoiserPair(cond=posterior(self.m_c), uncond=posterior(self.m_u))

    def error(self, guidance, sampler, steps, piecewise=False, shift=0):
        """Relative error of the sampled endpoint against the exact one; with
        ``shift``, against the piecewise endpoint whose gate switches that
        many steps later."""
        run = SampleRunConfig(
            steps=steps, schedule=self.SCHEDULE, seed=3, batch=8, shape=self.SHAPE,
            guidance=guidance, sampler=sampler,
        )
        out = sample(self.pair, run).data
        delta = (self.m_c - self.m_u)[None]
        m_delta = freqcfg_combine(Tensor4(delta), Tensor4(np.zeros_like(delta)), guidance).data[0] - delta[0]
        sigmas = self.SCHEDULE.grid(steps)
        # the sampler's step i runs from sigma_i to sigma_{i+1} with the gate at t = 1 - i/steps
        gates = [guidance.active_at(1.0 - (i - shift) / steps) if piecewise else True for i in range(steps)]
        z = initial_noise(3, 8, self.SHAPE, self.SIGMA_MAX).data
        start = 0
        for i in range(1, steps + 1):
            if i == steps or gates[i] != gates[start]:
                a = self.m_c + (m_delta if gates[start] else 0.0)
                z = a + (z - a) * np.sqrt((self.S**2 + sigmas[i] ** 2) / (self.S**2 + sigmas[start] ** 2))
                start = i
        return float(np.linalg.norm(out - z) / np.linalg.norm(z))

    @pytest.mark.parametrize("guidance", CONFIGS.values(), ids=CONFIGS)
    def test_heun_second_order_euler_first_order(self, guidance):
        heun32 = self.error(guidance, "heun", 32)
        heun64 = self.error(guidance, "heun", 64)
        euler_ratio = self.error(guidance, "euler", 128) / self.error(guidance, "euler", 64)
        assert heun64 < 1e-3
        assert 0.18 <= heun64 / heun32 <= 0.33
        assert 0.4 <= euler_ratio <= 0.6

    @pytest.mark.parametrize("guidance", CONFIGS.values(), ids=CONFIGS)
    def test_interval_gate_piecewise_endpoint(self, guidance):
        # shut, open, shut: the euler step keeps the gate of its start for the whole step
        gated = GuidanceConfig(transform=guidance.transform, scales=guidance.scales, interval=(0.75, 0.3))
        errors = [self.error(gated, "euler", steps, piecewise=True) for steps in (64, 128)]
        assert 0.4 <= errors[1] / errors[0] <= 0.6
        # the ungated endpoint is no limit of the gated run
        assert self.error(gated, "euler", 128) > 10 * errors[1]

    @pytest.mark.parametrize("guidance", CONFIGS.values(), ids=CONFIGS)
    def test_heun_step_keeps_one_gate_state(self, guidance):
        """Predictor and corrector of a step read the gate at its start, so the
        gated Heun run converges at second order to the piecewise endpoint
        with the real boundaries, not to one with a boundary a step off."""
        gated = GuidanceConfig(transform=guidance.transform, scales=guidance.scales, interval=(0.75, 0.3))
        errors = {steps: self.error(gated, "heun", steps, piecewise=True) for steps in (64, 128, 256)}
        assert 0.18 <= errors[128] / errors[64] <= 0.33
        assert 0.18 <= errors[256] / errors[128] <= 0.33
        for steps in (128, 256):
            for shift in (-1, 1):
                assert self.error(gated, "heun", steps, piecewise=True, shift=shift) >= 1.5 * errors[steps]


def blob_model(factored: bool):
    """The acceptance model (dense path), or with 16 centers and 4 classes
    one on separable factors."""
    spec = acceptance_spec()
    if factored:
        spec = replace(
            spec, centers=tuple((r, c) for r in (4.0, 12.0, 20.0, 28.0) for c in (4.0, 12.0, 20.0, 28.0)),
            n_classes=4, class_center_weights=None,
        )
    mix = blob_mixture_from_spec(spec)
    assert (mix.table is None) == factored
    return mix, make_denoiser_pair(mix, class_labels(spec))


class TestBlockedSampling:
    """``sample`` runs a batch of more than ``BLOCK_VALUES`` values per image
    in ``tensor.blocks`` of items; 42 items of 3 x 32 x 32 fit in one."""

    def run(self, mix, batch, sampler="heun", steps=6, transform=TransformKind.haar()):
        scales = (3.0, 1.5, 2.0)[: transform.band_count]
        return SampleRunConfig(
            steps=steps, schedule=ACCEPTANCE_SCHEDULE, seed=3, batch=batch, shape=mix.image_shape,
            guidance=GuidanceConfig(transform=transform, scales=scales), condition=1, sampler=sampler,
        )

    def spy_noise(self, monkeypatch):
        calls = []

        def spy(seed, batch, shape, sigma_max, **kwargs):
            calls.append((batch, kwargs.get("first", 0)))
            return initial_noise(seed, batch, shape, sigma_max, **kwargs)

        monkeypatch.setattr(diffusion, "initial_noise", spy)
        return calls

    @pytest.mark.parametrize("factored", [True, False], ids=["factored", "dense"])
    def test_blocks_give_one_block_bytes(self, monkeypatch, factored):
        mix, pair = blob_model(factored=factored)
        run = self.run(mix, 85)
        calls = self.spy_noise(monkeypatch)
        blocked = sample(pair, run)
        # one noise draw per block, keyed by the block's items
        assert calls == [(29, 0), (28, 29), (28, 57)]
        monkeypatch.setattr(tensor, "BLOCK_VALUES", 85 * mix.dim)
        assert sample(pair, run).data.tobytes() == blocked.data.tobytes()
        assert calls[3:] == [(85, 0)]

    def test_one_block_returns_its_state(self, monkeypatch):
        """In image space the last state, in the span the noise array the
        endpoint is made in: no copy either way."""
        mix, pair = blob_model(factored=False)
        states = []
        finite = diffusion.Tensor4

        def keep(data, **kwargs):
            states.append(finite(data, **kwargs))
            return states[-1]

        monkeypatch.setattr(diffusion, "Tensor4", keep)
        out = sample(DenoiserPair(cond=pair.cond, uncond=pair.uncond), self.run(mix, 42, sampler="euler"))
        assert out is states[-1]
        noises = []

        def spy(*args, **kwargs):
            noises.append(initial_noise(*args, **kwargs).data)
            return Tensor4(noises[-1], checked=True)

        monkeypatch.setattr(diffusion, "initial_noise", spy)
        assert sample(pair, self.run(mix, 42, sampler="euler")).data is noises[0]

    def test_recorder_merges_blocks(self, monkeypatch):
        mix, pair = blob_model(factored=False)
        run = self.run(mix, 16, sampler="euler", steps=12, transform=TransformKind.pyramid(2))
        whole = NormRecorder()
        sample(pair, run, recorder=whole)
        calls = self.spy_noise(monkeypatch)
        monkeypatch.setattr(tensor, "BLOCK_VALUES", 8 * mix.dim)
        blocked = NormRecorder()
        sample(pair, run, recorder=blocked)
        assert calls == [(8, 0), (8, 8)]
        assert len(blocked.records) == len(whole.records) == 12
        for got, want in zip(blocked.records, whole.records):
            assert (got.step, got.t, got.sigma) == (want.step, want.t, want.sigma)
            assert got.low_norm == pytest.approx(want.low_norm, rel=1e-14, abs=0)
            assert got.high_norm == pytest.approx(want.high_norm, rel=1e-14, abs=0)

    def test_batch_500_memory(self):
        """The whole batch at once peaked at 110 MiB, about 9 arrays of the
        batch, in this run."""
        mix, pair = blob_model(factored=False)
        run = self.run(mix, 500, sampler="euler", steps=2)
        out_bytes = 500 * mix.dim * 8
        tracemalloc.start()
        try:
            sample(pair, run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * out_bytes, f"peak {peak / 2**20:.1f} MiB for an {out_bytes / 2**20:.1f} MiB output"
