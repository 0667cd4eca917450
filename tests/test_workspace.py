"""Per-run buffers: a ``Workspace`` shared by consecutive calls changes no
byte of any result, and a result of a public call (no ``work``) is never
overwritten by a later call."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import ACCEPTANCE_SCHEDULE, acceptance_spec

from freqguide import (
    GuidanceConfig,
    SampleRunConfig,
    Tensor4,
    TransformKind,
    blob_mixture_from_spec,
    class_labels,
    freqcfg_combine,
    make_denoiser_pair,
    posterior_mean,
    sample,
)
from freqguide import diffusion
from freqguide.tensor import Workspace, blocks

rng = np.random.default_rng(11)

COMBINE_CONFIGS = {
    "unit-pyramid3": GuidanceConfig(transform=TransformKind.pyramid(3), scales=(3.0, 2.0, 1.5, 1.0)),
    "weighted-pyramid2": GuidanceConfig(
        transform=TransformKind.pyramid(2), scales=(3.0, 2.0, 1.5), parallel_weights=(0.5, 0.5, 1.0)
    ),
    "weighted-haar": GuidanceConfig(
        transform=TransformKind.haar(), scales=(4.0, 0.5), parallel_weights=(0.25, 1.5)
    ),
}


def rand(dims):
    return Tensor4(rng.uniform(-2.0, 2.0, dims))


class NaNWorkspace(Workspace):
    """A workspace that never reuses: every array is new and NaN-filled, so
    a value read before it is written shows in the result."""

    def get(self, name, shape):
        return np.full(shape, np.nan)


class NamingWorkspace(Workspace):
    """A workspace that keeps the shape each name was last asked for."""

    def __init__(self):
        super().__init__()
        self.shapes = {}

    def get(self, name, shape):
        self.shapes[name] = tuple(shape)
        return super().get(name, shape)


class CountingWorkspace(Workspace):
    """A workspace that counts the arrays it allocates."""

    allocated = 0

    def get(self, name, shape):
        before = self._arrays.get(name)
        arr = super().get(name, shape)
        if arr is not before:
            CountingWorkspace.allocated += 1
        return arr


def factored_model():
    """A small blob mixture on separable factors: 16 centers, 4 classes."""
    spec = replace(
        acceptance_spec(),
        centers=tuple((r, c) for r in (4.0, 12.0, 20.0, 28.0) for c in (4.0, 12.0, 20.0, 28.0)),
        n_classes=4,
        class_center_weights=None,
    )
    mix = blob_mixture_from_spec(spec)
    assert mix.table is None
    return mix, make_denoiser_pair(mix, class_labels(spec))


def dense_model():
    spec = acceptance_spec()
    mix = blob_mixture_from_spec(spec)
    assert mix.table is not None
    return mix, make_denoiser_pair(mix, class_labels(spec))


class TestWorkspace:
    def test_same_array_for_same_name_and_shape(self):
        work = Workspace()
        a = work.get("x", (2, 3))
        assert work.get("x", (2, 3)) is a
        assert work.get("y", (2, 3)) is not a
        assert a.dtype == np.float64 and a.flags["C_CONTIGUOUS"]

    def test_new_array_when_the_shape_changes(self):
        work = Workspace()
        a = work.get("x", (85, 3))
        b = work.get("x", (3, 3))
        assert b is not a and b.shape == (3, 3)
        assert work.get("x", (3, 3)) is b

    def test_get_thaws_an_array_a_tensor_froze(self):
        work = Workspace()
        arr = work.get("x", (1, 1, 2, 2))
        arr[...] = 1.0
        t = Tensor4(arr)
        assert t.data is arr and not arr.flags.writeable
        assert work.get("x", (1, 1, 2, 2)) is arr and arr.flags.writeable

    def test_workspaces_share_nothing(self):
        assert Workspace().get("x", (2,)) is not Workspace().get("x", (2,))


class TestCombineReuse:
    @pytest.mark.parametrize("cfg", COMBINE_CONFIGS.values(), ids=COMBINE_CONFIGS)
    def test_consecutive_calls_give_fresh_bytes(self, cfg):
        work = Workspace()
        outs = []
        for _ in range(3):
            d_c, d_u = rand((4, 3, 32, 32)), rand((4, 3, 32, 32))
            out = freqcfg_combine(d_c, d_u, cfg, work=work)
            outs.append(out.data)
            assert out.data.tobytes() == freqcfg_combine(d_c, d_u, cfg).data.tobytes()
            assert out.data.tobytes() == freqcfg_combine(d_c, d_u, cfg, work=NaNWorkspace()).data.tobytes()
        # the output itself is a reused array
        assert outs[0] is outs[1] is outs[2]

    @pytest.mark.parametrize("cfg", COMBINE_CONFIGS.values(), ids=COMBINE_CONFIGS)
    def test_blocks_of_35_and_34_items(self, cfg):
        # combine's blocks of 173 items of 3 x 32 x 32: 35, 35, 35, 34, 34
        d_c, d_u = rand((173, 3, 32, 32)), rand((173, 3, 32, 32))
        whole = freqcfg_combine(d_c, d_u, cfg).data
        work = Workspace()
        for items in blocks(173, (3, 32, 32)):
            part = slice(items.start, items.stop)
            chunk = freqcfg_combine(Tensor4(d_c.data[part]), Tensor4(d_u.data[part]), cfg, work=work)
            assert chunk.data.tobytes() == whole[part].tobytes()

    @pytest.mark.parametrize("cfg", COMBINE_CONFIGS.values(), ids=COMBINE_CONFIGS)
    def test_public_result_keeps_its_bytes(self, cfg):
        d_c, d_u = rand((2, 3, 32, 32)), rand((2, 3, 32, 32))
        first = freqcfg_combine(d_c, d_u, cfg)
        kept = first.data.tobytes()
        for _ in range(2):
            freqcfg_combine(rand((2, 3, 32, 32)), rand((2, 3, 32, 32)), cfg)
        assert first.data.tobytes() == kept


    @pytest.mark.parametrize("name", ["weighted-pyramid2", "weighted-haar"])
    def test_weighted_combine_holds_three_image_sized_arrays(self, name):
        # Δ and the guided output, the level-0 up-step (first band 0 of Δ, then
        # the correction) and p_0 (first band 0 of d_c, then its parallel term)
        dims = (4, 3, 32, 32)
        work = NamingWorkspace()
        freqcfg_combine(rand(dims), rand(dims), COMBINE_CONFIGS[name], work=work)
        image_sized = [n for n, shape in work.shapes.items() if shape == dims]
        assert len(image_sized) <= 3, image_sized


class TestPosteriorReuse:
    @pytest.mark.parametrize("model", [dense_model, factored_model], ids=["dense", "factored"])
    def test_consecutive_joint_calls_give_fresh_bytes(self, model):
        mix, pair = model()
        subset = pair.class_mixture(1)
        work = Workspace()
        for sigma in (3.0, 0.3, 0.05):
            z = rand((5,) + mix.image_shape)
            part, full = posterior_mean(z, sigma, mix, subset, work=work)
            fresh_part, fresh_full = posterior_mean(z, sigma, mix, subset)
            nan_part, nan_full = posterior_mean(z, sigma, mix, subset, work=NaNWorkspace())
            for got in (fresh_part, nan_part):
                assert part.data.tobytes() == got.data.tobytes()
            for got in (fresh_full, nan_full):
                assert full.data.tobytes() == got.data.tobytes()
            assert posterior_mean(z, sigma, mix, work=work).data.tobytes() == fresh_full.data.tobytes()

    @pytest.mark.parametrize("model", [dense_model, factored_model], ids=["dense", "factored"])
    def test_public_result_keeps_its_bytes(self, model):
        mix, pair = model()
        first = pair.both(rand((3,) + mix.image_shape), 0.5, 0)
        kept = [t.data.tobytes() for t in first]
        for _ in range(2):
            pair.both(rand((3,) + mix.image_shape), 0.5, 0)
        assert [t.data.tobytes() for t in first] == kept


class TestSampleReuse:
    CASES = {
        "euler-pyramid3-dense": (
            dense_model,
            GuidanceConfig(transform=TransformKind.pyramid(3), scales=(3.0, 2.0, 1.5, 1.0), interval=(0.8, 0.3)),
            "euler",
        ),
        "heun-pyramid2-weighted-dense": (
            dense_model,
            GuidanceConfig(
                transform=TransformKind.pyramid(2), scales=(3.0, 2.0, 1.5),
                parallel_weights=(0.5, 0.5, 1.0), interval=(0.7, 0.2),
            ),
            "heun",
        ),
        "heun-haar-factored": (
            factored_model,
            GuidanceConfig(transform=TransformKind.haar(), scales=(3.0, 1.5), interval=(0.75, 0.35)),
            "heun",
        ),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES)
    def test_reuse_gives_the_bytes_of_fresh_arrays(self, monkeypatch, case):
        model, guidance, sampler = case
        mix, pair = model()
        run = SampleRunConfig(
            steps=10, schedule=ACCEPTANCE_SCHEDULE, seed=4, batch=3, shape=mix.image_shape,
            guidance=guidance, condition=1, sampler=sampler,
        )
        # the gate closes and opens again: shut, open, shut over the steps
        # (and, under heun, between a step's predictor and corrector)
        gates = [guidance.active_at(1.0 - i / run.steps) for i in range(run.steps + 1)]
        assert gates[0] is False and True in gates and gates[-1] is False
        reused = sample(pair, run)
        monkeypatch.setattr(diffusion, "Workspace", NaNWorkspace)
        assert sample(pair, run).data.tobytes() == reused.data.tobytes()

    def test_arrays_are_allocated_once_per_run(self, monkeypatch):
        mix, pair = dense_model()
        guidance = GuidanceConfig(transform=TransformKind.pyramid(2), scales=(3.0, 2.0, 1.5))
        monkeypatch.setattr(diffusion, "Workspace", CountingWorkspace)
        counts = []
        for steps in (4, 12):
            CountingWorkspace.allocated = 0
            run = SampleRunConfig(
                steps=steps, schedule=ACCEPTANCE_SCHEDULE, seed=4, batch=2, shape=mix.image_shape,
                guidance=guidance, condition=0, sampler="heun",
            )
            sample(pair, run)
            counts.append(CountingWorkspace.allocated)
        assert counts[0] == counts[1] > 0

    def test_public_result_keeps_its_bytes(self):
        mix, pair = dense_model()
        run = SampleRunConfig(
            steps=4, schedule=ACCEPTANCE_SCHEDULE, seed=1, batch=2, shape=mix.image_shape,
            guidance=COMBINE_CONFIGS["unit-pyramid3"], condition=0, sampler="euler",
        )
        first = sample(pair, run)
        kept = first.data.tobytes()
        sample(pair, replace(run, seed=2))
        assert first.data.tobytes() == kept
