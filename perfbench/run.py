"""freqguide benchmark: closed-loop workload runs, each in a fresh process.

    python3 perfbench/run.py --workload sample-pyr3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it benchmarks the package under ./src.
One client runs one workload run at a time until ``--seconds`` have passed,
checks every run's output against the reference in ``oracle.py``, and prints
one JSON line as the last line of standard output.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced runs and reports the per-layer split from the traced ones.  A results
file with the samples and the machine it ran on goes to ``.bench_out/``, and
so do the spans of the last traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import numpy

import tracing
import workloads
from tracing import clock

HERE = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {"wall_s": "s", "images_per_s": "img/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if name.endswith("_s") and not name.endswith("per_s"):
        return "s"
    return {
        "calls": "count",
        "constructions": "count",
        "nfe": "count",
        "gflop": "GFLOP",
        "gflop_per_s": "GFLOP/s",
        "bytes": "bytes",
        "mb_per_s": "MB/s",
    }.get(suffix, "ratio")


def _per_layer_names() -> list[str]:
    one_span = [{"id": 0, "name": "analytic.posterior_mean", "parent": None, "start": 0.0, "end": 1.0}]
    names = list(tracing.summarize(one_span, 1.0))
    return names + ["cli.sweep.parallel_eff", "trace.overhead_ratio"]


PER_LAYER = {name: per_layer_unit(name) for name in _per_layer_names()}


def environment(root: Path) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "freqguide").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def median(values):
    """Median, or 0.0 when every run failed before producing the value."""
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


class Runner:
    """Spawns workload runs for one benchmark invocation and checks them."""

    def __init__(self, root: Path, work: Path, workload, ctx: dict, started: float):
        self.root = root
        self.work = work
        self.workload = workload
        self.ctx = ctx
        self.started = started
        self.count = 0
        self.last_spans = None

    def run(self, trace: bool, threads: int | None = None) -> dict:
        """One workload run in a fresh process; returns its sample."""
        index = self.count
        self.count += 1
        out = self.work / f"out-{index}{self.workload.suffix}"
        job = self.workload.job(self.ctx, out)
        job["report"] = str(self.work / f"report-{index}.json")
        job["spans"] = str(self.work / f"spans-{index}.jsonl") if trace else None
        job_path = self.work / f"job-{index}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        env = dict(
            os.environ,
            PYTHONPATH=str(self.root / "src"),
            FREQGUIDE_THREADS=str(threads or self.workload.threads),
        )
        log_path = self.work / f"log-{index}.txt"
        timeout = max(1.0, DEADLINE_S - (clock() - self.started))
        with open(log_path, "wb") as log:
            start = clock()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(job_path)],
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
            # a blocking wait, not wait(timeout=), which polls and would add
            # up to 50 ms to the measured end
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                proc.wait()
            finally:
                timer.cancel()
            end = clock()
        sample = {
            "traced": trace,
            "threads": threads,
            "wall_s": end - start,
            "exit": proc.returncode,
            "error": None,
        }
        try:
            report = json.loads(Path(job["report"]).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = {"ready": None, "peak_rss_kb": None}
        sample["setup_s"] = None if report["ready"] is None else report["ready"] - start
        sample["peak_rss_mb"] = None if report["peak_rss_kb"] is None else report["peak_rss_kb"] / 1024.0
        if proc.returncode != 0:
            sample["error"] = f"exit {proc.returncode}: " + log_path.read_text(errors="replace")[-2000:]
        elif sample["setup_s"] is None:
            sample["error"] = "child never reached the first sampler or combine call"
        else:
            try:
                self.workload.check(self.ctx, out)
            except workloads.CheckFailed as exc:
                sample["error"] = f"output check: {exc}"
        if trace and sample["error"] is None:
            sample["layers"] = tracing.summarize(tracing.read_spans(job["spans"]), sample["wall_s"])
            self.last_spans = job["spans"]
        workloads.remove_outputs(self.workload, out)
        return sample


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark invocation.  Writes the results file (and, when traced,
    the spans of the last traced run) to .bench_out/ and returns the result
    line."""
    started = clock()
    workload = workloads.WORKLOADS[name]
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    work = out_dir / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        ctx = workload.prepare(seed, workloads.SIZES[size], work)
        runner = Runner(root, work, workload, ctx, started)
        # compile the package's bytecode once, as an installed package would have it
        subprocess.run(
            [sys.executable, "-c", "import freqguide"],
            cwd=root,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=60,
        )
        cycle = [(False, None)]
        if trace:
            cycle.append((True, None))
            if workload.threads > 1:
                cycle.append((False, 1))  # single-thread baseline for parallel_eff
        samples = []
        loop_start = clock()
        while True:
            for traced, threads in cycle:
                samples.append(runner.run(traced, threads))
            if clock() - loop_start >= seconds:
                break
        stem = f"BENCH_{name}_seed{seed}_trace{int(trace)}" + ("" if size == "full" else f"_{size}")
        if runner.last_spans is not None:
            shutil.copyfile(runner.last_spans, out_dir / f"{stem}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for s in samples if s["error"] is not None)
    ok = [s for s in samples if s["error"] is None] or samples
    plain = [s for s in ok if not s["traced"] and s["threads"] is None]
    walls = [s["wall_s"] for s in plain]
    wall = median(walls)
    e2e = {
        "wall_s": wall,
        "images_per_s": ctx["images"] / wall,
        "setup_s": median([s["setup_s"] for s in plain if s["setup_s"] is not None]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in plain if s["peak_rss_mb"] is not None]),
    }
    layers = {}
    if trace:
        traced = [s for s in ok if "layers" in s]
        for key in traced[0]["layers"] if traced else ():
            layers[key] = median([s["layers"][key] for s in traced])
        layers["trace.overhead_ratio"] = median([s["wall_s"] for s in traced]) / wall
        single = [s["wall_s"] for s in ok if s["threads"] == 1]
        layers["cli.sweep.parallel_eff"] = median(single) / (2.0 * wall) if single else 0.0
    metrics = layers if trace else e2e
    units = PER_LAYER if trace else END_TO_END
    line = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {key: {"value": metrics.get(key, 0.0), "unit": units[key]} for key in units},
    }
    results = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": workloads.SIZES[size],
        "environment": environment(root),
        "failed_frac": failed / len(samples),
        "end_to_end": e2e,
        "wall_s_tail": tail(walls),
        "wall_s_n": len(walls),
        "per_layer": layers,
        "samples": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return line


def smoke(root: Path) -> int:
    """Run every workload untraced and traced at tiny sizes and check that
    every metric in BENCHMARK.json is emitted with its unit."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    for name in names:
        for trace in (False, True):
            line = measure(root, name, seed=1, seconds=0.0, trace=trace, size="smoke")
            got = {key: m["unit"] for key, m in line["metrics"].items()}
            if not line["correct"]:
                problems.append(f"{name} trace={trace}: {line['failed']} of {line['attempted']} runs failed")
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} != BENCHMARK.json {want[trace]}")
            print(f"smoke {name} trace={int(trace)}: {line['attempted']} runs, {line['failed']} failed")
    for problem in problems:
        print("smoke: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, then exit")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "freqguide" / "__init__.py").is_file():
        print("run.py: no src/freqguide here; run from the root of a freqguide checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**60:  # per-call sample seeds are seed * calls + k < 2**63
        parser.error("--seed must be in [0, 2**60)")
    print(json.dumps(measure(root, args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
