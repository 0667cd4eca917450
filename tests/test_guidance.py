import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqguide import (
    BandNormRecord,
    DenoiserPair,
    DomainError,
    GuidanceConfig,
    NormRecorder,
    ShapeError,
    Tensor4,
    TransformKind,
    UsageError,
    crossover_step,
    freqcfg_combine,
    freqcfg_combine_bands,
    guidance,
    guided_denoise,
    inverse_bands,
    project,
    transform_bands,
)
from freqguide.frequency import low_pass_chain, low_pass_operators, step_matrices, up_step

rng = np.random.default_rng(7)


def rand(dims=(2, 3, 32, 32), lo=-2.0, hi=2.0):
    return rng.uniform(lo, hi, dims)


def rand4(dims=(2, 3, 32, 32)):
    return Tensor4(rand(dims))


def make_records(low, high):
    return [
        BandNormRecord(step=i, t=1.0 - i / len(low), sigma=1.0, low_norm=lo, high_norm=hi)
        for i, (lo, hi) in enumerate(zip(low, high))
    ]


ALL_KINDS = (TransformKind.pyramid(1), TransformKind.pyramid(2), TransformKind.haar())


def plain_cfg(d_c, d_u, w, kind):
    """Plain CFG at scale w: ``freqcfg_combine`` with one scale on every band."""
    return freqcfg_combine(d_c, d_u, GuidanceConfig(transform=kind, scales=(w,) * kind.band_count))


class TestCfgCombine:
    def test_w_one_is_conditional(self):
        d_c, d_u = rand(), rand()
        for kind in ALL_KINDS:
            assert np.array_equal(plain_cfg(d_c, d_u, 1.0, kind), d_c)

    def test_w_zero_is_unconditional(self):
        # d_c + (0 - 1)(d_c - d_u): exactly that rounding, within it of d_u
        d_c, d_u = rand(), rand()
        for kind in ALL_KINDS:
            out = plain_cfg(d_c, d_u, 0.0, kind)
            assert np.array_equal(out, d_c - (d_c - d_u))
            assert np.abs(out - d_u).max() <= 1e-15

    def test_equal_inputs_fixed_point(self):
        d = rand()
        for w in (0.0, 1.0, 3.5, -2.0):
            for kind in ALL_KINDS:
                assert np.abs(plain_cfg(d, d, w, kind) - d).max() == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            plain_cfg(rand((1, 1, 8, 8)), rand((1, 1, 8, 10)), 2.0, TransformKind.haar())


class TestOperator:
    """``guidance.operator``'s gains on ``frequency.low_pass_operators``
    are per-band CFG at unit parallel weights as one linear map:
    M·x = freqcfg_combine(x, 0) - x."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["pyramid1", "pyramid2", "pyramid3", "haar"]),
        size=st.tuples(st.integers(32, 40), st.integers(32, 40)),
        scales=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_band_recursion(self, kind, size, scales, seed):
        transform = TransformKind.haar() if kind == "haar" else TransformKind.pyramid(int(kind[-1]))
        h, w = (2 * (n // 2) for n in size) if kind == "haar" else size
        cfg = GuidanceConfig(transform=transform, scales=scales[: transform.band_count])
        x = np.random.default_rng(seed).uniform(-2.0, 2.0, (2, 3, h, w))
        gains, ops = guidance.operator(cfg), low_pass_operators(transform, h, w)
        assert gains[0] == cfg.scales[0] - 1.0 and len(gains) == len(ops) + 1 == transform.band_count
        got = gains[0] * x + sum(c * (p_h @ x @ p_w.T) for c, (p_h, p_w) in zip(gains[1:], ops))
        want = freqcfg_combine(x, np.zeros_like(x), cfg) - x
        bound = 1e-13 * np.abs(x).max() * max(1.0, *np.abs(cfg.scales))
        assert np.abs(got - want).max() <= bound


class TestProject:
    def test_collinear(self):
        v1 = rand4()
        v0 = Tensor4(2.0 * v1.data)
        par, orth = project(v0, v1)
        assert np.abs(par.data - v0.data).max() < 1e-12
        assert np.abs(orth.data).max() < 1e-12

    def test_orthogonal_case(self):
        v1 = rand4((1, 1, 2, 2))
        # explicit orthogonal complement in 4 dims
        a, b, c, d = v1.data.ravel()
        v0 = Tensor4(np.array([-b, a, -d, c]).reshape(1, 1, 2, 2))
        par, orth = project(v0, v1)
        assert np.abs(par.data).max() < 1e-12
        assert np.array_equal(orth.data, v0.data - par.data)

    def test_inner_product_identities(self):
        v0, v1 = rand4(), rand4()
        par, orth = project(v0, v1)
        assert np.abs(par.data + orth.data - v0.data).max() < 1e-12
        for i in range(v0.dims[0]):
            dot = float(np.sum(orth.data[i] * v1.data[i]))
            bound = 1e-10 * np.linalg.norm(v0.data[i]) * np.linalg.norm(v1.data[i])
            assert abs(dot) <= bound

    def test_zero_direction_item(self):
        v0 = rand4((2, 1, 4, 4))
        v1_data = rng.uniform(-1, 1, (2, 1, 4, 4))
        v1_data[1] = 0.0
        par, orth = project(v0, Tensor4(v1_data))
        assert np.abs(par.data[1]).max() == 0.0
        assert np.array_equal(orth.data[1], v0.data[1])


def manual_single_level_combine(d_c, d_u, w_high, w_low):
    """Hand-rolled decompose -> per-band cfg -> reconstruct oracle."""
    kind = TransformKind.pyramid(1)
    (step,) = step_matrices(kind, *d_c.shape[2:])
    g1_c, g1_u = low_pass_chain(d_c, kind)[1], low_pass_chain(d_u, kind)[1]
    l0_c = d_c - up_step(g1_c, step)
    l0_u = d_u - up_step(g1_u, step)
    band0 = l0_u + w_high * (l0_c - l0_u)
    band1 = g1_u + w_low * (g1_c - g1_u)
    return band0 + up_step(band1, step)


class TestFreqCfgCombine:
    @pytest.mark.parametrize("w", [0.0, 1.0, 2.0, 7.5])
    @pytest.mark.parametrize(
        "kind", [TransformKind.pyramid(1), TransformKind.pyramid(2), TransformKind.haar()]
    )
    def test_uniform_scales_reduce_to_cfg(self, w, kind):
        d_c, d_u = rand(), rand()
        cfg = GuidanceConfig(transform=kind, scales=(w,) * kind.band_count)
        got = freqcfg_combine(d_c, d_u, cfg)
        ref = d_u + w * (d_c - d_u)
        assert np.abs(got - ref).max() < 1e-8

    def test_all_ones_returns_conditional(self):
        d_c, d_u = rand(), rand()
        cfg = GuidanceConfig(transform=TransformKind.pyramid(1), scales=(1.0, 1.0))
        assert np.abs(freqcfg_combine(d_c, d_u, cfg) - d_c).max() < 1e-9

    def test_equal_inputs_fixed_point(self):
        d = rand()
        cfg = GuidanceConfig(
            transform=TransformKind.haar(), scales=(4.0, 0.5), parallel_weights=(0.3, 2.0)
        )
        assert np.abs(freqcfg_combine(d, d, cfg) - d).max() < 1e-9

    def test_against_hand_rolled_single_level_oracle(self):
        d_c, d_u = rand(), rand()
        w_high, w_low = 1.0, 3.0
        cfg = GuidanceConfig(transform=TransformKind.pyramid(1), scales=(w_high, w_low))
        got = freqcfg_combine(d_c, d_u, cfg)
        oracle = manual_single_level_combine(d_c, d_u, w_high, w_low)
        assert np.abs(got - oracle).max() < 1e-10

    def test_scale_count_validated(self):
        with pytest.raises(UsageError):
            GuidanceConfig(transform=TransformKind.pyramid(2), scales=(1.0, 2.0))

    def test_shape_mismatch(self):
        cfg = GuidanceConfig(transform=TransformKind.haar(), scales=(1.0, 1.0))
        with pytest.raises(ShapeError):
            freqcfg_combine(rand((1, 1, 8, 8)), rand((1, 1, 8, 10)), cfg)
        with pytest.raises(ShapeError):
            freqcfg_combine(rand((1, 8, 8)), rand((1, 8, 8)), cfg)


class TestBandLocality:
    def test_unit_low_scale_keeps_residual_coefficients(self):
        d_c, d_u = rand4(), rand4()
        for kind in (TransformKind.pyramid(1), TransformKind.haar()):
            cfg = GuidanceConfig(transform=kind, scales=(5.0, 1.0))
            guided = freqcfg_combine_bands(d_c, d_u, cfg)
            bands_c = transform_bands(d_c, kind)
            assert np.abs(guided[-1].data - bands_c[-1].data).max() < 1e-9

    def test_unit_high_scale_keeps_detail_coefficients(self):
        d_c, d_u = rand4(), rand4()
        for kind in (TransformKind.pyramid(1), TransformKind.haar()):
            cfg = GuidanceConfig(transform=kind, scales=(1.0, 5.0))
            guided = freqcfg_combine_bands(d_c, d_u, cfg)
            bands_c = transform_bands(d_c, kind)
            for got, ref in zip(guided[:-1], bands_c[:-1]):
                assert np.abs(got.data - ref.data).max() < 1e-9

    def test_haar_locality_visible_in_output(self):
        # haar is an orthogonal bijection, so coefficient locality survives
        # reconstruction and re-decomposition of the output tensor
        d_c, d_u = rand(), rand()
        cfg = GuidanceConfig(transform=TransformKind.haar(), scales=(5.0, 1.0))
        out = freqcfg_combine(d_c, d_u, cfg)
        out_bands = transform_bands(Tensor4(out), cfg.transform)
        c_bands = transform_bands(Tensor4(d_c), cfg.transform)
        assert np.abs(out_bands[-1].data - c_bands[-1].data).max() < 1e-9

    def test_detail_update_scales_linearly_in_w_high(self):
        d_c, d_u = rand4(), rand4()
        kind = TransformKind.pyramid(1)
        bands_c = transform_bands(d_c, kind)
        deltas = []
        for w_high in (1.0, 2.0, 4.0, 7.0):
            cfg = GuidanceConfig(transform=kind, scales=(w_high, 1.0))
            guided = freqcfg_combine_bands(d_c, d_u, cfg)
            deltas.append(np.linalg.norm(guided[0].data - bands_c[0].data))
        base = deltas[1]
        for w_high, delta in zip((1.0, 2.0, 4.0, 7.0), deltas):
            assert delta == pytest.approx(abs(w_high - 1.0) * base, rel=1e-10, abs=1e-12)
        assert deltas == sorted(deltas)


def band_space_combine(d_c, d_u, cfg):
    return inverse_bands(freqcfg_combine_bands(Tensor4(d_c), Tensor4(d_u), cfg), cfg.transform).data


def weight_sets(gen, n):
    """Unit weights, a mix of 0, 1 and other weights, and no unit weight."""
    mixed = gen.permutation([0.0, 1.0] + list(gen.uniform(-1.0, 3.0, n - 2)))
    return [None, tuple(mixed), tuple(gen.uniform(-1.0, 3.0, n))]


class TestClosedForm:
    """``freqcfg_combine`` runs one recursion for every weight; it equals the
    band-space reference: decompose, reweight each band, reconstruct."""

    @pytest.mark.parametrize(
        "dims,kind",
        [
            ((2, 3, 32, 32), TransformKind.pyramid(1)),
            ((2, 3, 32, 32), TransformKind.pyramid(2)),
            ((2, 3, 32, 32), TransformKind.pyramid(3)),
            ((2, 3, 32, 32), TransformKind.haar()),
            ((2, 3, 15, 17), TransformKind.pyramid(1)),
            ((2, 3, 33, 35), TransformKind.pyramid(3)),
        ],
    )
    def test_equals_band_space_path(self, dims, kind):
        d_c, d_u = rand(dims), rand(dims)
        scales = tuple(rng.uniform(-1.0, 6.0, kind.band_count))
        for weights in weight_sets(rng, kind.band_count):
            cfg = GuidanceConfig(transform=kind, scales=scales, parallel_weights=weights)
            closed = freqcfg_combine(d_c, d_u, cfg)
            assert np.abs(closed - band_space_combine(d_c, d_u, cfg)).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 3), st.integers(0, 9), st.integers(0, 9), st.integers(0, 2**32 - 1)
    )
    def test_equals_band_space_path_property(self, levels, extra_h, extra_w, seed):
        # levels = 0 is Haar, on even sides
        gen = np.random.default_rng(seed)
        if levels:
            kind, side = TransformKind.pyramid(levels), 4 * 2**levels
            dims = (2, 2, side + extra_h, side + extra_w)
        else:
            kind = TransformKind.haar()
            dims = (2, 2, 2 * (2 + extra_h), 2 * (2 + extra_w))
        d_c, d_u = gen.uniform(-2, 2, dims), gen.uniform(-2, 2, dims)
        scales = tuple(gen.uniform(-1.0, 6.0, kind.band_count))
        for weights in weight_sets(gen, kind.band_count):
            cfg = GuidanceConfig(transform=kind, scales=scales, parallel_weights=weights)
            closed = freqcfg_combine(d_c, d_u, cfg)
            assert np.abs(closed - band_space_combine(d_c, d_u, cfg)).max() <= 1e-12

    def test_haar_low_pass_is_block_mean(self):
        d_c, d_u = rand((2, 3, 8, 10)), rand((2, 3, 8, 10))
        delta = d_c - d_u
        block_mean = delta.reshape(2, 3, 4, 2, 5, 2).mean(axis=(3, 5))
        expected = d_c + np.repeat(np.repeat(block_mean, 2, axis=2), 2, axis=3)
        cfg = GuidanceConfig(transform=TransformKind.haar(), scales=(1.0, 2.0))
        assert np.abs(freqcfg_combine(d_c, d_u, cfg) - expected).max() < 1e-14

    def test_infeasible_levels_raise_shape_error(self):
        cfg = GuidanceConfig(transform=TransformKind.pyramid(3), scales=(2.0, 1.0, 1.0, 1.0))
        with pytest.raises(ShapeError, match="max feasible is 2"):
            freqcfg_combine(rand((1, 1, 16, 16)), rand((1, 1, 16, 16)), cfg)
        with pytest.raises(ShapeError):
            haar = GuidanceConfig(transform=TransformKind.haar(), scales=(2.0, 1.0))
            freqcfg_combine(rand((1, 1, 8, 9)), rand((1, 1, 8, 9)), haar)


class TestOverflow:
    @pytest.mark.parametrize("kind", [TransformKind.pyramid(2), TransformKind.haar()])
    @pytest.mark.parametrize("unit_weights", [True, False])
    def test_overflow_is_domain_error_on_both_paths(self, kind, unit_weights):
        n = kind.band_count
        weights = None if unit_weights else (0.5,) * n
        cfg = GuidanceConfig(transform=kind, scales=(1e308,) * n, parallel_weights=weights)
        d_c, d_u = rand(), rand()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                freqcfg_combine(d_c, d_u, cfg)
            with pytest.raises(DomainError):
                freqcfg_combine_bands(Tensor4(d_c), Tensor4(d_u), cfg)

    def test_reconstruction_overflow_is_domain_error(self):
        # a checkerboard on a constant: both bands peak at 1, their sum at 2, so
        # every guided band is finite and only the synthesis overflows
        yy, xx = np.mgrid[0:16, 0:16]
        d = (1.0 + (-1.0) ** (yy + xx))[None, None]
        cfg = GuidanceConfig(
            transform=TransformKind.pyramid(1), scales=(6.7e307, 6.7e307), parallel_weights=(0.9, 0.9)
        )
        assert all(np.isfinite(b.data).all() for b in freqcfg_combine_bands(Tensor4(d), Tensor4(-d), cfg))
        with pytest.raises(DomainError):
            freqcfg_combine(d, -d, cfg)


class TestParallelWeights:
    def test_unit_weights_match_projection_free_path(self):
        d_c, d_u = rand(), rand()
        kind = TransformKind.pyramid(1)
        cfg = GuidanceConfig(transform=kind, scales=(3.0, 2.0), parallel_weights=(1.0, 1.0))
        got = freqcfg_combine(d_c, d_u, cfg)
        # projection-free oracle: band_c + (scale - 1) * raw diff
        bands_c = transform_bands(Tensor4(d_c), kind)
        bands_u = transform_bands(Tensor4(d_u), kind)
        guided = [
            Tensor4(c.data + (s - 1.0) * (c.data - u.data))
            for c, u, s in zip(bands_c, bands_u, (3.0, 2.0))
        ]
        oracle = inverse_bands(guided, kind)
        assert np.abs(got - oracle.data).max() < 1e-10

    def test_zero_weight_removes_parallel_component(self):
        d_c, d_u = rand4(), rand4()
        cfg = GuidanceConfig(
            transform=TransformKind.haar(), scales=(2.0, 2.0), parallel_weights=(0.0, 0.0)
        )
        got = freqcfg_combine_bands(d_c, d_u, cfg)
        bands_c = transform_bands(d_c, TransformKind.haar())
        bands_u = transform_bands(d_u, TransformKind.haar())
        for g, c, u in zip(got, bands_c, bands_u):
            diff = Tensor4(c.data - u.data)
            _, orth = project(diff, c)
            assert np.abs(g.data - (c.data + orth.data)).max() < 1e-10


class FixedPair:
    """Denoiser pair returning preset arrays and counting calls."""

    def __init__(self, d_c, d_u):
        self.d_c, self.d_u = d_c, d_u
        self.cond_calls = 0
        self.uncond_calls = 0

    def pair(self):
        def cond(z, sigma, condition=None):
            self.cond_calls += 1
            return self.d_c

        def uncond(z, sigma):
            self.uncond_calls += 1
            return self.d_u

        return DenoiserPair(cond=cond, uncond=uncond)


class TestGuidedDenoise:
    def test_gate_closed_returns_conditional_exactly(self):
        d_c, d_u = rand(), rand()
        fixture = FixedPair(d_c, d_u)
        cfg = GuidanceConfig(
            transform=TransformKind.haar(), scales=(3.0, 3.0), interval=(0.8, 0.2)
        )
        out = guided_denoise(rand(), 1.0, 0.9, fixture.pair(), cfg)
        assert out is d_c
        assert fixture.uncond_calls == 0

    def test_no_interval_matches_freqcfg(self):
        d_c, d_u = rand(), rand()
        cfg = GuidanceConfig(transform=TransformKind.haar(), scales=(2.0, 0.5))
        out = guided_denoise(rand(), 1.0, 0.5, FixedPair(d_c, d_u).pair(), cfg)
        ref = freqcfg_combine(d_c, d_u, cfg)
        assert np.array_equal(out, ref)

    def test_gate_boundaries_inclusive(self):
        d_c, d_u = rand(), rand()
        cfg = GuidanceConfig(
            transform=TransformKind.haar(), scales=(2.0, 2.0), interval=(0.8, 0.2)
        )
        for t, active in ((0.8, True), (0.2, True), (0.81, False), (0.19, False)):
            fixture = FixedPair(d_c, d_u)
            guided_denoise(rand(), 1.0, t, fixture.pair(), cfg)
            assert (fixture.uncond_calls == 1) is active

    def test_default_both_is_cond_then_uncond(self):
        d_c, d_u = rand(), rand()
        fixture = FixedPair(d_c, d_u)
        got = fixture.pair().both(rand(), 1.0, 0)
        assert got[0] is d_c and got[1] is d_u
        assert (fixture.cond_calls, fixture.uncond_calls) == (1, 1)

    def test_one_both_call_per_open_gate_and_cond_only_when_closed(self):
        d_c, d_u = rand(), rand()
        log = []

        class SpyPair(DenoiserPair):
            def both(self, z, sigma, condition=None):
                log.append("both")
                return d_c, d_u

        pair = SpyPair(
            cond=lambda z, sigma, condition=None: log.append("cond") or d_c,
            uncond=lambda z, sigma: log.append("uncond") or d_u,
        )
        cfg = GuidanceConfig(
            transform=TransformKind.haar(), scales=(2.0, 2.0), interval=(0.8, 0.2)
        )
        ts = [1.0 - i / 10 for i in range(11)]
        for t in ts:
            log.clear()
            guided_denoise(rand(), 1.0, t, pair, cfg)
            assert log == (["both"] if cfg.active_at(t) else ["cond"])

    def test_sigma_must_be_positive(self):
        cfg = GuidanceConfig(transform=TransformKind.haar(), scales=(1.0, 1.0))
        with pytest.raises(Exception, match="sigma"):
            guided_denoise(rand(), 0.0, 0.5, FixedPair(rand(), rand()).pair(), cfg)

    def test_recorder_counts_and_t_sequence(self):
        d_c, d_u = rand((1, 1, 8, 8)), rand((1, 1, 8, 8))
        cfg = GuidanceConfig(transform=TransformKind.haar(), scales=(2.0, 2.0))
        recorder = NormRecorder()
        ts = [1.0 - i / 10 for i in range(10)]
        for i, t in enumerate(ts):
            pair = FixedPair(d_c, d_u).pair()
            guided_denoise(rand((1, 1, 8, 8)), 1.0, t, pair, cfg, recorder=recorder, step=i)
        assert len(recorder.records) == 10
        assert [r.step for r in recorder.records] == list(range(10))
        assert [r.t for r in recorder.records] == ts
        # Haar is orthonormal: the band norms split ||d_c - d_u|| exactly
        delta = d_c - d_u
        detail, ll = transform_bands(Tensor4(delta), cfg.transform)
        assert recorder.records[0].low_norm == pytest.approx(np.linalg.norm(ll.data))
        assert recorder.records[0].high_norm == pytest.approx(np.linalg.norm(detail.data))
        record = recorder.records[0]
        assert np.hypot(record.low_norm, record.high_norm) == pytest.approx(np.linalg.norm(delta))


class TestCrossover:
    def test_tie_breaks_earlier(self):
        records = make_records([4.0, 3.0, 2.0, 1.0], [1.0, 2.0, 3.0, 4.0])
        assert crossover_step(records) == 1

    def test_monotone_gap_picks_last(self):
        records = make_records([5.0, 4.0, 3.0], [1.0, 1.0, 1.0])
        assert crossover_step(records) == 2

    def test_matches_brute_force_on_random_series(self):
        for _ in range(25):
            low = rng.uniform(0, 5, 12)
            high = rng.uniform(0, 5, 12)
            records = make_records(low, high)
            brute = min(range(12), key=lambda i: (abs(low[i] - high[i]), i))
            assert crossover_step(records) == brute

    def test_needs_two_records(self):
        with pytest.raises(UsageError):
            crossover_step([])
        with pytest.raises(UsageError):
            crossover_step(make_records([1.0], [1.0]))


class TestGuidanceConfigValidation:
    def test_interval_ordering(self):
        with pytest.raises(UsageError):
            GuidanceConfig(
                transform=TransformKind.haar(), scales=(1.0, 1.0), interval=(0.2, 0.8)
            )
        with pytest.raises(UsageError):
            GuidanceConfig(
                transform=TransformKind.haar(), scales=(1.0, 1.0), interval=(1.2, 0.1)
            )
        for interval in [(1.0, 0.5, 0.2), (0.5,), ("a", 0.2)]:
            with pytest.raises(UsageError, match="interval"):
                GuidanceConfig(transform=TransformKind.haar(), scales=(1.0, 1.0), interval=interval)

    def test_weight_length(self):
        with pytest.raises(UsageError):
            GuidanceConfig(
                transform=TransformKind.haar(), scales=(1.0, 1.0), parallel_weights=(1.0,)
            )

    def test_non_finite_scales(self):
        with pytest.raises(UsageError):
            GuidanceConfig(transform=TransformKind.haar(), scales=(np.inf, 1.0))
        with pytest.raises(UsageError, match="scales must be numbers"):
            GuidanceConfig(transform=TransformKind.haar(), scales=("a", 1.0))
