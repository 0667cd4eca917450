"""Spans around the program's public functions, recorded from outside the package.

``install`` replaces each traced function at every ``freqguide`` module
attribute that holds it, so callers that look the name up at call time (the
denoiser closures, the sweep worker, ``guided_denoise``) go through the
wrapper.  Spans live in memory under a lock, because sweep points run in
threads, and are written to a sidecar file when the run ends.  ``summarize``
turns one run's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time

MODULES = ("analytic", "frequency", "guidance", "diffusion", "tensor", "metrics", "cli")

# (defining module, function name, span name)
TRACED = (
    ("analytic", "posterior_mean", "analytic.posterior_mean"),
    ("analytic", "blob_mixture_from_spec", "analytic.blob_mixture_from_spec"),
    ("analytic", "make_denoiser_pair", "analytic.make_denoiser_pair"),
    ("frequency", "transform_bands", "frequency.transform_bands"),
    ("frequency", "inverse_bands", "frequency.inverse_bands"),
    ("guidance", "guided_denoise", "guidance.guided_denoise"),
    ("guidance", "freqcfg_combine", "guidance.freqcfg_combine"),
    ("guidance", "freqcfg_combine_bands", "guidance.freqcfg_combine_bands"),
    ("guidance", "project", "guidance.project"),
    ("diffusion", "sample", "diffusion.sample"),
    ("diffusion", "initial_noise", "diffusion.initial_noise"),
    ("tensor", "read_tensor", "tensor.read_tensor"),
    ("tensor", "write_tensor", "tensor.write_tensor"),
    ("tensor", "write_csv", "tensor.write_csv"),
    ("metrics", "mode_report", "metrics.mode_report"),
    ("metrics", "band_energy_fraction", "metrics.band_energy_fraction"),
    ("metrics", "saturation_proxy", "metrics.saturation_proxy"),
    ("cli", "_load_config", "cli.load_config"),
    ("cli", "build_model", "cli.build_model"),
    ("cli", "build_pair", "cli.build_pair"),
    ("cli", "write_manifest", "cli.write_manifest"),
)

# spans that mark a wait, not work: left out of self-time sums
POOL_SPAN = "cli.sweep.pool"


def clock() -> float:
    """CLOCK_MONOTONIC is system-wide on Linux, so parent and child agree."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _posterior_flop(args, kwargs, result) -> dict:
    # computed from array sizes, 4 * B * K * D per call (the two B x K x D
    # products), not counted by hardware
    z, mix = args[0], args[2] if len(args) > 2 else kwargs["mix"]
    batch = z.dims[0]
    return {"flop": 4 * batch * mix.n_components * mix.dim}


def _read_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _write_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


COUNTERS = {
    "analytic.posterior_mean": _posterior_flop,
    "tensor.read_tensor": _read_bytes,
    "tensor.write_tensor": _write_bytes,
}


class Recorder:
    """In-memory span list shared by every thread of one traced run."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[dict] = []

    def _open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append({"name": name, "parent": parent, "tid": threading.get_ident()})
        stack.append(index)
        return index

    def _close(self, index: int, start: float, extra: dict | None):
        end = clock()
        self._local.stack.pop()
        with self._lock:
            span = self.spans[index]
            span["start"], span["end"] = start, end
            if extra:
                span.update(extra)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            start = clock()
            extra = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    extra = counter(args, kwargs, result)
                return result
            finally:
                self._close(index, start, extra)

        return traced

    def pool_class(self):
        from concurrent.futures import ThreadPoolExecutor

        recorder = self

        class TracedPool(ThreadPoolExecutor):
            def __enter__(self):
                self._span = recorder._open(POOL_SPAN)
                self._start = clock()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    recorder._close(self._span, self._start, None)

        return TracedPool

    def write(self, path):
        with self._lock:
            spans = [dict(s, id=index) for index, s in enumerate(self.spans) if "end" in s]
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def install(recorder: Recorder):
    """Wrap every TRACED function and ``Tensor4.__init__`` in ``recorder``."""
    modules = {name: importlib.import_module(f"freqguide.{name}") for name in MODULES}
    modules["freqguide"] = importlib.import_module("freqguide")
    for home, attr, span_name in TRACED:
        original = getattr(modules[home], attr)
        wrapped = recorder.wrap(span_name, original)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    tensor_cls = modules["tensor"].Tensor4
    tensor_cls.__init__ = recorder.wrap("tensor.Tensor4", tensor_cls.__init__)
    modules["cli"].ThreadPoolExecutor = recorder.pool_class()


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out


def summarize(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose process took ``wall_s``.

    A layer the run never reaches reads 0.  Shares are self time over wall
    time, so in the two-thread sweep they sum thread time and can pass 1.
    """
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        if span["parent"] is not None and span["parent"] not in by_id:
            raise ValueError(f"span {span['id']} has unknown parent {span['parent']}")
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + span["end"] - span["start"]
        for key in ("flop", "bytes"):
            if key in span:
                bucket = counts.setdefault(name, {})
                bucket[key] = bucket.get(key, 0) + span[key]

    def c(name):
        return float(calls.get(name, 0))

    def s(name):
        return self_s.get(name, 0.0)

    def t(name):
        return total_s.get(name, 0.0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    m: dict[str, float] = {}
    pm = "analytic.posterior_mean"
    gflop = counts.get(pm, {}).get("flop", 0) / 1e9
    m[pm + ".calls"] = c(pm)
    m[pm + ".self_s"] = s(pm)
    m[pm + ".share"] = s(pm) / wall_s
    m[pm + ".gflop"] = gflop
    m[pm + ".gflop_per_s"] = ratio(gflop, s(pm))
    m["analytic.build_s"] = t("analytic.blob_mixture_from_spec") + t("analytic.make_denoiser_pair")
    m["cli.config_s"] = t("cli.load_config")
    for name in ("frequency.transform_bands", "frequency.inverse_bands"):
        m[name + ".calls"] = c(name)
        m[name + ".self_s"] = s(name)
        m[name + ".share"] = s(name) / wall_s
    fc = "guidance.freqcfg_combine"
    m[fc + ".calls"] = c(fc)
    m[fc + ".self_s"] = s(fc)
    m[fc + ".total_s"] = t(fc)
    m["guidance.project.calls"] = c("guidance.project")
    m["guidance.project.self_s"] = s("guidance.project")
    m["guidance.guided_denoise.self_s"] = s("guidance.guided_denoise")
    m["guidance.overhead_ratio"] = ratio(t(fc), s(pm))
    m["diffusion.sample.self_s"] = s("diffusion.sample")
    m["diffusion.initial_noise.self_s"] = s("diffusion.initial_noise")
    m["diffusion.nfe"] = c("guidance.guided_denoise")
    m["tensor.Tensor4.constructions"] = c("tensor.Tensor4")
    m["tensor.Tensor4.self_s"] = s("tensor.Tensor4")
    for name in ("tensor.read_tensor", "tensor.write_tensor"):
        nbytes = counts.get(name, {}).get("bytes", 0)
        m[name + ".bytes"] = float(nbytes)
        m[name + ".self_s"] = s(name)
        m[name + ".mb_per_s"] = ratio(nbytes / 1e6, t(name))
    m["tensor.write_csv.self_s"] = s("tensor.write_csv")
    for name in ("mode_report", "band_energy_fraction", "saturation_proxy"):
        m[f"metrics.{name}.self_s"] = s(f"metrics.{name}")
    m["cli.write_manifest.self_s"] = s("cli.write_manifest")
    m["cli.sweep.concurrency"] = ratio(t("diffusion.sample"), t(POOL_SPAN))
    for module in MODULES:
        own = sum(v for k, v in self_s.items() if k.startswith(module + ".") and k != POOL_SPAN)
        m[f"{module}.self_s"] = own
        m[f"{module}.share"] = own / wall_s
    return m
