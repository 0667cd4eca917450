"""The benchmark in ``perfbench/`` finds package functions by name: a traced
run wraps every ``TRACED`` entry of ``perfbench/tracing.py``, and a CLI
workload marks set-up done at the first call of its ``ready_at`` name in
``freqguide.cli``, and a library workload (``perfbench/child.py``) calls
package names with keywords.  An untraced run would not notice a renamed
traced name, so these tests read those files (without running them) and
look the names up.
They also hold the guided workloads, dense and factored, to the
component-basis step, which a change that sent them back to the band
engine would slow down unnoticed.
"""

import ast
import importlib
import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import spy_combine_batches

from freqguide import (
    BlobTextureSpec, GuidanceConfig, Tensor4, TransformKind, blob_mixture_from_spec, class_labels, guided_denoise,
    make_denoiser_pair,
)
from freqguide import analytic
from freqguide.cli import build_guidance, build_model, build_pair, build_run
from freqguide.config import Config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def assigned(path: Path, name: str) -> list:
    """The literal value of every assignment to ``name`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]


(TRACED,) = assigned(PERFBENCH / "tracing.py", "TRACED")
READY_AT = assigned(PERFBENCH / "workloads.py", "ready_at")


@pytest.mark.parametrize("module, name", [entry[:2] for entry in TRACED], ids=[entry[2] for entry in TRACED])
def test_traced_name_exists(module, name):
    assert callable(getattr(importlib.import_module(f"freqguide.{module}"), name, None))


def test_cli_workloads_wait_for_existing_names():
    assert {"sample", "freqcfg_combine"} <= set(READY_AT)
    cli = importlib.import_module("freqguide.cli")
    for name in READY_AT:
        assert callable(getattr(cli, name, None)), name


def package_reads(path: Path, function: str) -> tuple[list, list]:
    """The ``analytic.``, ``diffusion.``, ``frequency.`` and ``guidance.``
    attribute chains that ``function`` in ``path`` reads, as name tuples (none
    the start of another), and the (chain, keywords) of each call it makes
    through one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (body,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == function]

    def chain(node):
        names = []
        while isinstance(node, ast.Attribute):
            names.insert(0, node.attr)
            node = node.value
        modules = ("analytic", "diffusion", "frequency", "guidance")
        return [node.id] + names if names and isinstance(node, ast.Name) and node.id in modules else None

    reads = {tuple(c) for c in map(chain, ast.walk(body)) if c}
    longest = sorted(c for c in reads if not any(other[: len(c)] == c != other for other in reads))
    calls = [(chain(n.func), [k.arg for k in n.keywords]) for n in ast.walk(body) if isinstance(n, ast.Call)]
    return longest, [(names, keywords) for names, keywords in calls if names]


def resolve(names):
    obj = importlib.import_module(f"freqguide.{names[0]}")
    for name in names[1:]:
        obj = getattr(obj, name)
    return obj


LIBRARY_READS, LIBRARY_CALLS = package_reads(PERFBENCH / "child.py", "run_library")


@pytest.mark.parametrize("names", LIBRARY_READS, ids=[".".join(c) for c in LIBRARY_READS])
def test_library_workload_reads_existing_names(names):
    assert resolve(names) is not None


def test_library_workload_calls_with_known_keywords():
    called = {".".join(names) for names, _ in LIBRARY_CALLS}
    assert {"analytic.BlobTextureSpec", "diffusion.SampleRunConfig", "guidance.GuidanceConfig"} <= called
    for names, keywords in LIBRARY_CALLS:
        # a dataclass's signature is its init fields
        inspect.signature(resolve(names)).bind_partial(**dict.fromkeys(keywords))


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py`` as a module, imported as the benchmark does."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def library_workload(workloads, name):
    """The pair, guidance and condition ``perfbench/child.py`` builds for the
    library workload ``name``."""
    workload = workloads.WORKLOADS[name]
    spec = dict(workload.spec)
    spec["n_classes"] = spec.pop("classes")
    spec["centers"] = tuple(map(tuple, spec["centers"]))
    weights = spec["class_center_weights"]
    spec["class_center_weights"] = None if weights is None else tuple(map(tuple, weights))
    spec = BlobTextureSpec(**spec)
    g = workload.guidance
    transform = TransformKind.haar() if g["transform"] == "haar" else TransformKind.pyramid(g["levels"])
    cfg = GuidanceConfig(transform=transform, scales=tuple(g["scales"]), parallel_weights=tuple(g["weights"]))
    return make_denoiser_pair(blob_mixture_from_spec(spec), class_labels(spec)), [cfg], workloads.CONDITION


def sample_pyr3(workloads):
    return library_workload(workloads, "sample-pyr3")


def sweep_cli(workloads):
    """The pair, the guidance of each grid point and the condition of the
    sweep-cli run, built as ``freqguide sweep`` builds them."""
    cfg = Config.from_path(PERFBENCH / "sweep.cfg")
    mix, labels = build_model(cfg)
    base = build_guidance(cfg, mix.image_shape)
    points = [replace(base, scales=(w_high, w_low)) for w_low, w_high in workloads.SWEEP_GRID]
    return build_pair(cfg, mix, labels), points, build_run(cfg, mix.image_shape, base).condition


@pytest.mark.parametrize("build", [sample_pyr3, sweep_cli], ids=["sample-pyr3", "sweep-cli"])
def test_guided_workloads_take_the_component_path(workloads, monkeypatch, build):
    pair, configs, condition = build(workloads)
    batches = spy_combine_batches(monkeypatch)
    z = Tensor4(np.random.default_rng(0).standard_normal((3,) + pair.mix.image_shape))
    for cfg in configs:
        assert pair.component_basis(cfg) is not None
        guided_denoise(z, 1.0, 1.0, pair, cfg, condition=condition)
    assert batches == []


def test_many_mode_guided_evaluation_takes_the_component_path(workloads, monkeypatch):
    """sample-manymodes, whose mixture is factored, steps in the lifted
    factors of its planes: a guided evaluation calls no ``posterior_mean``,
    so the traced ``analytic.posterior_mean.calls`` reads 0, and combines
    no batch."""
    pair, (cfg,), condition = library_workload(workloads, "sample-manymodes")
    assert pair.mix.table is None and pair.component_basis(cfg) is not None
    real, calls = analytic.posterior_mean, []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analytic, "posterior_mean", spy)
    batches = spy_combine_batches(monkeypatch)
    z = Tensor4(np.random.default_rng(0).standard_normal((3,) + pair.mix.image_shape))
    for sigma in (80.0, 1.0):
        guided_denoise(z, sigma, 1.0, pair, cfg, condition=condition)
    assert calls == [] and batches == []
