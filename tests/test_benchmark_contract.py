"""The benchmark in ``perfbench/`` finds package functions by name: a traced
run wraps every ``TRACED`` entry of ``perfbench/tracing.py``, and a CLI
workload marks set-up done at the first call of its ``ready_at`` name in
``freqguide.cli``, and a library workload (``perfbench/child.py``) calls
package names with keywords.  An untraced run would not notice a renamed
traced name, so these tests read those files (without running them) and
look the names up.
They also hold the guided workloads, dense and factored, to stepping in
the span of their predictions, which a change that sent them back to
image space would slow down unnoticed.
"""

import ast
import importlib
import inspect
import math
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import spy_combine_batches

from freqguide import (
    BlobTextureSpec, GuidanceConfig, NoiseSchedule, SampleRunConfig, TransformKind, blob_mixture_from_spec,
    class_labels, make_denoiser_pair, sample,
)
from freqguide import analytic, span
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


def sample_manymodes(workloads):
    pair, configs, condition = library_workload(workloads, "sample-manymodes")
    assert pair.mix.table is None
    return pair, configs, condition


@pytest.mark.parametrize(
    "build", [sample_pyr3, sweep_cli, sample_manymodes], ids=["sample-pyr3", "sweep-cli", "sample-manymodes"]
)
def test_guided_workloads_step_in_the_span(workloads, monkeypatch, build):
    """Every guided workload, dense and factored, integrates in the
    coordinates of its predictions' span: no (B, D) array enters the mixture
    weights inside the loop, and no step calls ``posterior_mean`` (so the
    traced ``analytic.posterior_mean.calls`` reads 0) or combines a batch."""
    pair, configs, condition = build(workloads)
    shape = pair.mix.image_shape
    widths, calls = [], []
    side_weights, posterior_mean = span._side_weights, analytic.posterior_mean

    def spy_weights(zf, *args):
        widths.append(zf.shape[1])
        return side_weights(zf, *args)

    def spy_posterior(*args, **kwargs):
        calls.append(args)
        return posterior_mean(*args, **kwargs)

    monkeypatch.setattr(span, "_side_weights", spy_weights)
    monkeypatch.setattr(analytic, "posterior_mean", spy_posterior)
    batches = spy_combine_batches(monkeypatch)
    for cfg in configs:
        assert span.span_of(pair, cfg, shape) is not None
        run = SampleRunConfig(
            steps=3, schedule=NoiseSchedule.karras(0.02, 80.0), seed=0, batch=3, shape=shape,
            guidance=cfg, condition=condition, sampler="heun",
        )
        sample(pair, run)
    assert len(widths) == 5 * len(configs) and max(widths) < math.prod(shape)
    assert calls == [] and batches == []
