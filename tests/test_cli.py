import argparse
import csv
import inspect
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from freqguide import (
    ConfigError,
    GuidanceConfig,
    Tensor4,
    TransformKind,
    band_energy_fraction,
    default_tau,
    freqcfg_combine,
    mode_report,
    read_tensor,
    saturation_proxy,
    write_tensor,
)
from freqguide import cli
from freqguide.cli import main
from freqguide.config import Config, parse_config_text

rng = np.random.default_rng(5)

ROOT = Path(__file__).resolve().parents[1]

BASE_CONFIG = """
# desk-scale smoke model
mixture.kind = blob
mixture.height = 16
mixture.width = 16
mixture.channels = 1
mixture.centers = 5:5,11:11
mixture.blob_radius = 8
mixture.blob_amplitude = 1.0
mixture.texture_freq = 0.5
mixture.texture_amplitude = 0.001
mixture.classes = 2
mixture.noise_scale = 0.05

schedule.kind = karras
schedule.sigma_min = 0.02
schedule.sigma_max = 20
schedule.rho = 7

sample.steps = 6
sample.sampler = euler
sample.seed = 3
sample.batch = 2
sample.condition = 0
"""


def write_config(tmp_path, extra="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(BASE_CONFIG + extra)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestConfigParsing:
    def test_basic_values_and_comments(self):
        values = parse_config_text("# comment\na.b = 1\n\nc.d = hello world\n")
        assert values == {"a.b": "1", "c.d": "hello world"}

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_config_text("a = 1\n# fine\nbroken line\n", source="<config>")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_typed_getters(self):
        cfg = Config({"x.f": "2.5", "x.i": "7", "x.b": "true", "x.list": "1,2.5,3"})
        assert cfg.get_float("x.f") == 2.5
        assert cfg.get_int("x.i") == 7
        assert cfg.get_bool("x.b") is True
        assert cfg.get_floats("x.list") == (1.0, 2.5, 3.0)
        assert cfg.get_str("missing", "fallback") == "fallback"
        with pytest.raises(ConfigError):
            cfg.get_int("x.f")
        with pytest.raises(ConfigError):
            cfg.get_str("missing")

    def test_typed_getter_defaults_and_malformed_bool(self):
        cfg = Config({"x.b": "maybe"})
        assert cfg.get_int("missing", 5) == 5
        assert cfg.get_float("missing", None) is None
        assert cfg.get_bool("missing", False) is False
        assert cfg.get_floats("missing", None) is None
        with pytest.raises(ConfigError, match="not a boolean"):
            cfg.get_bool("x.b")
        with pytest.raises(ConfigError, match="not a boolean"):
            cfg.get_bool("x.b", True)

    def test_overrides(self):
        cfg = Config({"a.b": "1"})
        cfg.apply_overrides(["a.b=2", "c.d = 3"])
        assert cfg.values["a.b"] == "2"
        assert cfg.values["c.d"] == "3"


def documented_keys():
    """Keys named in README's "Config keys" block, the benchmark's sweep
    config and BASE_CONFIG."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config keys", 1)[1].split("```ini", 1)[1].split("```", 1)[0]
    keys = set(re.findall(r"\b(?:mixture|schedule|sample|guidance|autoguide|sweep)\.[a-z_]+", block))
    keys |= set(parse_config_text((ROOT / "perfbench" / "sweep.cfg").read_text(encoding="utf-8")))
    return keys | set(parse_config_text(BASE_CONFIG))


class TestConfigKeys:
    def test_unknown_key_is_config_error_naming_nearest(self, tmp_path, capsys):
        out = str(tmp_path / "x.fqg")
        code = run_cli("sample", "--config", write_config(tmp_path), "--set", "guidance.scale=5,5",
                       "--out", out)
        assert code == 3
        err = capsys.readouterr().err
        assert "error [config]" in err and "'guidance.scale'" in err and "'guidance.scales'" in err
        assert not os.path.exists(out)

    def test_documented_keys_accepted(self, tmp_path):
        keys = documented_keys()
        assert {"guidance.interval", "autoguide.jitter_rel", "sweep.tau", "mixture.mean_value"} <= keys
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{key} = 1\n" for key in sorted(keys)))
        cfg = cli._load_config(argparse.Namespace(config=str(path), set=[]))
        assert set(cfg.values) == keys

    def test_known_keys_are_the_keys_commands_read(self):
        source = inspect.getsource(cli)
        read = set(re.findall(r'(?:get_\w+|has)\("([a-z_]+\.[a-z_]+)"', source))
        assert read == cli.CONFIG_KEYS


class TestSampleCommand:
    def test_writes_tensor_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "samples.fqg")
        assert run_cli("sample", "--config", cfg, "--out", out) == 0
        tensor = read_tensor(out)
        assert tensor.dims == (2, 1, 16, 16)
        manifest = json.loads((tmp_path / "samples.fqg.manifest.json").read_text())
        assert manifest["command"] == "sample"
        assert manifest["seed"] == 3
        assert manifest["outputs"] == [out]

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = str(tmp_path / "a.fqg"), str(tmp_path / "b.fqg")
        run_cli("sample", "--config", cfg, "--out", out1)
        run_cli("sample", "--config", cfg, "--out", out2)
        assert (tmp_path / "a.fqg").read_bytes() == (tmp_path / "b.fqg").read_bytes()

    def test_unit_scales_match_unguided(self, tmp_path):
        cfg_plain = write_config(tmp_path, name="plain.cfg")
        cfg_guided = write_config(
            tmp_path,
            extra="guidance.transform = pyramid\nguidance.levels = 1\nguidance.scales = 1,1\n",
            name="guided.cfg",
        )
        out_plain, out_guided = str(tmp_path / "p.fqg"), str(tmp_path / "g.fqg")
        run_cli("sample", "--config", cfg_plain, "--out", out_plain)
        run_cli("sample", "--config", cfg_guided, "--out", out_guided)
        a, b = read_tensor(out_plain), read_tensor(out_guided)
        assert np.abs(a.data - b.data).max() <= 1e-9

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = str(tmp_path / "a.fqg"), str(tmp_path / "b.fqg")
        run_cli("sample", "--config", cfg, "--out", out1)
        run_cli("sample", "--config", cfg, "--out", out2, "--seed", "99")
        assert (tmp_path / "a.fqg").read_bytes() != (tmp_path / "b.fqg").read_bytes()

    def test_infeasible_levels_reported_before_sampling(self, tmp_path):
        cfg = write_config(
            tmp_path, extra="guidance.transform = pyramid\nguidance.levels = 5\n"
        )
        assert run_cli("sample", "--config", cfg, "--out", str(tmp_path / "x.fqg")) == 3
        assert not (tmp_path / "x.fqg").exists()


class TestCombineCommand:
    def make_dumps(self, tmp_path, dims=(2, 1, 16, 16)):
        d_c = Tensor4(rng.uniform(-2, 2, dims))
        d_u = Tensor4(rng.uniform(-2, 2, dims))
        pc, pu = str(tmp_path / "c.fqg"), str(tmp_path / "u.fqg")
        write_tensor(pc, d_c)
        write_tensor(pu, d_u)
        return d_c, d_u, pc, pu

    def test_unit_pair_returns_cond(self, tmp_path):
        d_c, _, pc, pu = self.make_dumps(tmp_path)
        out = str(tmp_path / "g.fqg")
        assert run_cli("combine", "--cond", pc, "--uncond", pu,
                       "--w-low", "1", "--w-high", "1", "--out", out) == 0
        assert np.abs(read_tensor(out).data - d_c.data).max() < 1e-9

    def test_uniform_scale_matches_cfg_combine(self, tmp_path):
        d_c, d_u, pc, pu = self.make_dumps(tmp_path)
        out = str(tmp_path / "g.fqg")
        run_cli("combine", "--cond", pc, "--uncond", pu,
                "--w-low", "7.5", "--w-high", "7.5", "--out", out)
        ref = d_u.data + 7.5 * (d_c.data - d_u.data)
        assert np.abs(read_tensor(out).data - ref).max() < 1e-8

    def test_bit_identical_to_library_call(self, tmp_path):
        d_c, d_u, pc, pu = self.make_dumps(tmp_path)
        out = str(tmp_path / "g.fqg")
        run_cli("combine", "--cond", pc, "--uncond", pu,
                "--scales", "2.5,0.5", "--transform", "pyramid", "--levels", "1",
                "--out", out)
        lib = freqcfg_combine(
            d_c, d_u, GuidanceConfig(transform=TransformKind.pyramid(1), scales=(2.5, 0.5))
        )
        assert read_tensor(out).data.tobytes() == lib.data.tobytes()

    def test_conflicting_flags(self, tmp_path):
        _, _, pc, pu = self.make_dumps(tmp_path)
        code = run_cli("combine", "--cond", pc, "--uncond", pu,
                       "--w-low", "1", "--scales", "1,1", "--out", str(tmp_path / "x.fqg"))
        assert code == 2

    def test_dim_mismatch(self, tmp_path):
        _, _, pc, _ = self.make_dumps(tmp_path)
        other = str(tmp_path / "other.fqg")
        write_tensor(other, Tensor4(rng.uniform(-1, 1, (2, 1, 16, 18))))
        code = run_cli("combine", "--cond", pc, "--uncond", other,
                       "--w-low", "1", "--w-high", "2", "--out", str(tmp_path / "x.fqg"))
        assert code == 4

    @pytest.mark.parametrize(
        "flags",
        [("--scales", "3,abc"), ("--scales", "2,1", "--parallel-weights", "1,x")],
    )
    def test_malformed_numbers_are_usage_errors(self, tmp_path, capsys, flags):
        _, _, pc, pu = self.make_dumps(tmp_path)
        code = run_cli("combine", "--cond", pc, "--uncond", pu, *flags,
                       "--out", str(tmp_path / "x.fqg"))
        assert code == 2
        assert "error [usage]" in capsys.readouterr().err
        assert not (tmp_path / "x.fqg").exists()

    @pytest.mark.parametrize("weights", [(), ("--parallel-weights", "0.5,0.5")])
    def test_overflow_is_domain_error(self, tmp_path, capsys, weights):
        _, _, pc, pu = self.make_dumps(tmp_path)
        code = run_cli("combine", "--cond", pc, "--uncond", pu, "--scales", "1e308,1e308",
                       *weights, "--out", str(tmp_path / "x.fqg"))
        assert code == 6
        assert "error [domain]" in capsys.readouterr().err
        assert not (tmp_path / "x.fqg").exists()

    def test_haar_transform_flag(self, tmp_path):
        d_c, d_u, pc, pu = self.make_dumps(tmp_path)
        out = str(tmp_path / "g.fqg")
        run_cli("combine", "--cond", pc, "--uncond", pu, "--transform", "haar",
                "--w-low", "0.5", "--w-high", "2", "--out", out)
        ref = freqcfg_combine(
            d_c, d_u, GuidanceConfig(transform=TransformKind.haar(), scales=(2.0, 0.5))
        )
        assert read_tensor(out).data.tobytes() == ref.data.tobytes()


class TestAnalyzeNorms:
    def test_row_per_step_and_crossover(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, extra="guidance.transform = haar\nguidance.scales = 2,2\n"
        )
        out = str(tmp_path / "norms.csv")
        assert run_cli("analyze-norms", "--config", cfg, "--out", out, "--steps", "12") == 0
        printed = capsys.readouterr().out
        assert "crossover_step=" in printed
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "t", "sigma", "low_norm", "high_norm"]
        assert len(rows) - 1 == 12
        steps = [int(r[0]) for r in rows[1:]]
        assert steps == list(range(12))
        manifest = json.loads((tmp_path / "norms.csv.manifest.json").read_text())
        gaps = [abs(float(r[3]) - float(r[4])) for r in rows[1:]]
        assert manifest["crossover_step"] == int(np.argmin(gaps))
        # heun's corrector evaluation must not add extra records
        out2 = str(tmp_path / "norms_heun.csv")
        run_cli("analyze-norms", "--config", cfg, "--out", out2, "--steps", "12",
                "--sampler", "heun")
        with open(out2, newline="") as fh:
            assert len(list(csv.reader(fh))) - 1 == 12

    def test_requires_transform(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_cli("analyze-norms", "--config", cfg, "--out", str(tmp_path / "n.csv")) == 3

    def test_interval_gates_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            extra=(
                "guidance.transform = haar\nguidance.scales = 2,2\n"
                "guidance.interval = 0.8:0.3\n"
            ),
        )
        out = str(tmp_path / "norms.csv")
        run_cli("analyze-norms", "--config", cfg, "--out", out, "--steps", "10")
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        ts = [float(r[1]) for r in rows]
        assert all(0.3 <= t <= 0.8 for t in ts)
        assert len(rows) < 10

    def test_interval_rows_carry_the_sampler_step(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            extra="guidance.transform = haar\nguidance.scales = 2,2\nguidance.interval = 0.5:0.1\n",
        )
        out = str(tmp_path / "norms.csv")
        assert run_cli("analyze-norms", "--config", cfg, "--out", out, "--steps", "8") == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        steps = [int(r[0]) for r in rows]
        # t = 1 - i/steps at sampler step i; the gate is open for i = 4..7
        assert steps == [4, 5, 6, 7]
        assert [float(r[1]) for r in rows] == [1.0 - i / 8 for i in steps]
        gaps = [abs(float(r[3]) - float(r[4])) for r in rows]
        crossover = steps[int(np.argmin(gaps))]
        assert f"crossover_step={crossover}" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "norms.csv.manifest.json").read_text())
        assert manifest["crossover_step"] == crossover


    @pytest.mark.parametrize("interval", ["0.8:abc", "0.8", "0.8:0.2:0.1"])
    def test_malformed_interval_is_config_error(self, tmp_path, capsys, interval):
        cfg = write_config(
            tmp_path,
            extra=f"guidance.transform = haar\nguidance.scales = 2,2\nguidance.interval = {interval}\n",
        )
        assert run_cli("analyze-norms", "--config", cfg, "--out", str(tmp_path / "n.csv")) == 3
        assert "error [config]" in capsys.readouterr().err


class TestMalformedNumbers:
    @pytest.mark.parametrize(
        "argv, code, category",
        [
            (("sweep", "--grid", "1:x"), 2, "usage"),
            (("sweep", "--grid", "1:1,x:3"), 2, "usage"),
            (("sample", "--set", "mixture.centers=8:a"), 3, "config"),
            (("sample", "--set", "mixture.class_center_weights=0.5:x;0.5:0.5"), 3, "config"),
            (("sweep", "--grid", "1:1,,3:3"), 2, "usage"),
        ],
    )
    def test_categorized_not_traceback(self, tmp_path, capsys, argv, code, category):
        out = str(tmp_path / "x.out")
        assert run_cli(argv[0], "--config", write_config(tmp_path), *argv[1:], "--out", out) == code
        assert f"error [{category}]" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("guidance.scales", "2,,1.5"),
            ("guidance.scales", "2,1.5,"),
            ("guidance.parallel_weights", "1,,1"),
            ("guidance.interval", "0.9::0.1"),
            ("mixture.centers", "5:5,,11:11"),
            ("mixture.centers", "5:5,11:11,"),
            ("mixture.class_center_weights", "0.5:0.5;;0.5:0.5"),
        ],
    )
    def test_empty_list_item_is_config_error_naming_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, extra="guidance.transform = pyramid\nguidance.scales = 2,1.5\n")
        out = str(tmp_path / "x.fqg")
        assert run_cli("sample", "--config", cfg, "--set", f"{key}={value}", "--out", out) == 3
        err = capsys.readouterr().err
        assert "error [config]" in err and repr(key) in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "settings, code",
        [
            (("mixture.class_center_weights=0.5:nan;0.5:0.5",), 3),
            (("mixture.noise_scale=nan",), 3),
            (("mixture.noise_scale=inf",), 3),
            (("mixture.blob_radius=nan",), 3),
            (("mixture.blob_radius=inf",), 3),
            (("mixture.blob_amplitude=nan",), 3),
            (("mixture.blob_amplitude=inf",), 3),
            (("mixture.texture_amplitude=inf",), 3),
            (("mixture.kind=single", "mixture.mean_value=nan"), 6),
            (("autoguide.enabled=true", "autoguide.jitter=nan"), 6),
            (("autoguide.enabled=true", "autoguide.jitter_rel=nan"), 6),
            (("autoguide.enabled=true", "autoguide.inflate=nan"), 6),
            (("sweep.tau=nan",), 3),
            (("sweep.tau=inf",), 3),
            (("sweep.tau=-1",), 3),
        ],
        ids=lambda value: "+".join(value) if isinstance(value, tuple) else str(value),
    )
    def test_non_finite_number_gets_its_keys_category(self, tmp_path, capsys, monkeypatch, settings, code):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the value was rejected")

        monkeypatch.setattr(cli, "sample", no_sampling)
        overrides = [arg for setting in settings for arg in ("--set", setting)]
        out = str(tmp_path / "s.csv")
        argv = ("sweep", "--config", write_config(tmp_path), *overrides, "--grid", "1:1", "--out", out)
        assert run_cli(*argv) == code
        err = capsys.readouterr().err
        if code == 3:
            key = settings[-1].split("=")[0]
            assert "error [config]" in err and key.split(".")[1] in err
        else:
            assert "error [domain]" in err
        assert not os.path.exists(out)


class TestSweep:
    def test_baseline_point_and_duplicates(self, tmp_path):
        cfg = write_config(tmp_path, extra="sweep.samples = 8\n")
        out = str(tmp_path / "sweep.csv")
        assert run_cli("sweep", "--config", cfg, "--grid", "1:1,1:1,2:3", "--out", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "w_low", "w_high", "recall", "precision", "saturation", "low_energy", "high_energy",
        ]
        assert len(rows) - 1 == 3
        assert rows[1] == rows[2]  # duplicate grid points give identical rows
        assert float(rows[1][0]) == 1.0 and float(rows[1][1]) == 1.0

    def test_points_run_in_the_calling_thread(self, tmp_path, monkeypatch):
        def no_threads(thread):
            raise AssertionError(f"sweep started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        cfg = write_config(tmp_path, extra="sweep.samples = 4\n")
        assert run_cli("sweep", "--config", cfg, "--grid", "1:1,3:3", "--out", str(tmp_path / "s.csv")) == 0

    def test_rejects_multilevel_transform(self, tmp_path):
        cfg = write_config(
            tmp_path,
            extra="guidance.transform = pyramid\nguidance.levels = 2\nsweep.samples = 4\n",
        )
        assert run_cli("sweep", "--config", cfg, "--grid", "1:1", "--out", str(tmp_path / "s.csv")) == 3

    def test_null_condition_rejected_unless_autoguided(self, tmp_path, capsys):
        # with a null condition d_c = d_u, so every grid point would give the same row
        cfg = write_config(tmp_path, extra="sweep.samples = 2\n")
        out = str(tmp_path / "s.csv")
        argv = ("sweep", "--config", cfg, "--set", "sample.condition=null", "--grid", "1:1,3:3")
        assert run_cli(*argv, "--out", out) == 3
        err = capsys.readouterr().err
        assert "error [config]" in err and "sample.condition" in err
        assert not os.path.exists(out)
        assert run_cli(*argv, "--set", "autoguide.enabled=true", "--set", "autoguide.jitter_rel=0.1",
                       "--out", out) == 0

    def test_rows_match_sample_runs_with_weights_and_interval(self, tmp_path):
        """A sweep row is the metrics of ``sample`` at that point's scales,
        with the shared defaults (no sample.sampler here) and every guidance key."""
        base = BASE_CONFIG.replace("sample.sampler = euler\n", "")
        guided = "guidance.transform = pyramid\nguidance.levels = 1\nsweep.samples = 6\n"
        keys = "guidance.parallel_weights = 0.5,0.5\nguidance.interval = 0.9:0.1\n"
        cfg_path, plain_path = tmp_path / "run.cfg", tmp_path / "plain.cfg"
        cfg_path.write_text(base + guided + keys)
        plain_path.write_text(base + guided)
        rows = {}
        for name, path in (("run", cfg_path), ("plain", plain_path)):
            out = str(tmp_path / f"{name}.csv")
            assert run_cli("sweep", "--config", str(path), "--grid", "2:3", "--out", out) == 0
            with open(out, newline="") as fh:
                rows[name] = list(csv.reader(fh))[1]
        assert rows["run"] != rows["plain"]

        out = str(tmp_path / "point.fqg")
        assert run_cli("sample", "--config", str(cfg_path), "--set", "guidance.scales=3,2",
                       "--set", "sample.batch=6", "--out", out) == 0
        samples = read_tensor(out)
        mix, labels = cli.build_model(Config.from_path(cfg_path))
        target = mix.restricted(np.flatnonzero(labels == 0))
        report = mode_report(samples, target, default_tau(mix))
        expected = (2.0, 3.0, report.recall, report.precision, saturation_proxy(samples, target),
                    *band_energy_fraction(samples, TransformKind.pyramid(1)))
        assert [float(cell) for cell in rows["run"]] == list(expected)


class TestTransformFit:
    """A transform that cannot decompose the image size fails before any work."""

    ODD = ("--set", "mixture.height=15", "--set", "mixture.width=17", "--set", "mixture.centers=5:5,10:12")

    @pytest.mark.parametrize("command, flags", [
        ("sample", ()), ("analyze-norms", ()), ("sweep", ("--grid", "1:1")),
    ])
    def test_haar_on_odd_image_is_config_error(self, tmp_path, capsys, monkeypatch, command, flags):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the transform was checked")

        monkeypatch.setattr(cli, "sample", no_sampling)
        cfg = write_config(tmp_path, extra="guidance.transform = haar\nsweep.samples = 2\n")
        out = str(tmp_path / "x.out")
        assert run_cli(command, "--config", cfg, *self.ODD, *flags, "--out", out) == 3
        assert "haar transform needs even spatial dims, got 15x17" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_combine_haar_on_odd_image_is_usage_error(self, tmp_path, capsys):
        paths = []
        for name in ("c", "u"):
            paths.append(str(tmp_path / f"{name}.fqg"))
            write_tensor(paths[-1], Tensor4(rng.uniform(-1, 1, (1, 1, 15, 17))))
        out = str(tmp_path / "x.fqg")
        code = run_cli("combine", "--cond", paths[0], "--uncond", paths[1], "--transform", "haar",
                       "--scales", "2,1", "--out", out)
        assert code == 2
        assert "error [usage]" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestSingleGaussianConfig:
    CONFIG = """
mixture.kind = single
mixture.channels = 1
mixture.height = 4
mixture.width = 4
mixture.mean_value = 0.7
mixture.noise_scale = 2.0

schedule.kind = karras
schedule.sigma_min = 0.01
schedule.sigma_max = 10
schedule.rho = 7

sample.seed = 7
sample.batch = 4
sample.condition = null
"""

    def test_heun_endpoint_matches_closed_form(self, tmp_path):
        from freqguide import initial_noise

        cfg = tmp_path / "single.cfg"
        cfg.write_text(self.CONFIG)
        out = str(tmp_path / "single.fqg")
        assert run_cli(
            "sample", "--config", str(cfg), "--out", out, "--steps", "64", "--sampler", "heun"
        ) == 0
        got = read_tensor(out)
        z0 = initial_noise(7, 4, (1, 4, 4), 10.0)
        exact = 0.7 + (z0.data - 0.7) * 2.0 / np.sqrt(10.0**2 + 2.0**2)
        rel = np.linalg.norm(got.data - exact) / np.linalg.norm(exact)
        assert rel < 1e-3


class TestAutoguideConfig:
    def test_degraded_uncond_changes_norm_profile(self, tmp_path):
        base_cfg = write_config(
            tmp_path, extra="guidance.transform = haar\nguidance.scales = 2,2\n"
        )
        auto_cfg = write_config(
            tmp_path,
            extra=(
                "guidance.transform = haar\nguidance.scales = 2,2\n"
                "autoguide.enabled = true\nautoguide.jitter_rel = 0.1\n"
                "autoguide.inflate = 1.5\nautoguide.seed = 1\n"
            ),
            name="auto.cfg",
        )
        out_base, out_auto = str(tmp_path / "b.csv"), str(tmp_path / "a.csv")
        assert run_cli("analyze-norms", "--config", base_cfg, "--out", out_base) == 0
        assert run_cli("analyze-norms", "--config", auto_cfg, "--out", out_auto) == 0

        def low_series(path):
            with open(path, newline="") as fh:
                return [float(r[3]) for r in list(csv.reader(fh))[1:]]

        base_low = low_series(out_base)
        auto_low = low_series(out_auto)
        # the degraded unconditional model keeps a persistent low-band gap
        assert auto_low[-1] > base_low[-1]

    def test_conflicting_jitter_keys_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            extra=(
                "guidance.transform = haar\nguidance.scales = 2,2\n"
                "autoguide.enabled = true\nautoguide.jitter = 0.5\n"
                "autoguide.jitter_rel = 0.1\n"
            ),
        )
        assert run_cli("analyze-norms", "--config", cfg, "--out", str(tmp_path / "n.csv")) == 3


class TestGenData:
    def test_mean_images_and_definition(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = str(tmp_path / "data")
        assert run_cli("gen-data", "--config", cfg, "--out", out_dir) == 0
        files = sorted(os.listdir(out_dir))
        means = [f for f in files if f.startswith("mean_")]
        assert len(means) == 4  # 2 centers x 2 classes
        text = (tmp_path / "data" / "mixture.txt").read_text()
        assert "mixture.components = 4" in text
        assert "component.0.class = 0" in text
        tensor = read_tensor(os.path.join(out_dir, means[0]))
        assert tensor.dims == (1, 1, 16, 16)

    def test_zero_texture_amplitude_pairs_means(self, tmp_path):
        cfg = write_config(tmp_path, name="flat.cfg")
        out_dir = str(tmp_path / "flat")
        run_cli("gen-data", "--config", cfg, "--out", out_dir,
                "--set", "mixture.texture_amplitude=0")
        m0 = read_tensor(os.path.join(out_dir, "mean_000.fqg"))
        m1 = read_tensor(os.path.join(out_dir, "mean_001.fqg"))
        assert np.array_equal(m0.data, m1.data)

    def test_rerun_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "d1")
        run_cli("gen-data", "--config", cfg, "--out", out)
        before = {
            name: (tmp_path / "d1" / name).read_bytes() for name in sorted(os.listdir(out))
        }
        run_cli("gen-data", "--config", cfg, "--out", out)
        after = {
            name: (tmp_path / "d1" / name).read_bytes() for name in sorted(os.listdir(out))
        }
        assert before == after


class TestProcessBoundary:
    def test_module_invocation_matches_in_process(self, tmp_path):
        d_c = Tensor4(rng.uniform(-2, 2, (1, 1, 16, 16)))
        d_u = Tensor4(rng.uniform(-2, 2, (1, 1, 16, 16)))
        pc, pu = str(tmp_path / "c.fqg"), str(tmp_path / "u.fqg")
        write_tensor(pc, d_c)
        write_tensor(pu, d_u)
        out = str(tmp_path / "sub.fqg")
        proc = subprocess.run(
            [sys.executable, "-m", "freqguide", "combine", "--cond", pc, "--uncond", pu,
             "--w-low", "1.5", "--w-high", "4", "--out", out],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lib = freqcfg_combine(
            d_c, d_u, GuidanceConfig(transform=TransformKind.pyramid(1), scales=(4.0, 1.5))
        )
        assert read_tensor(out).data.tobytes() == lib.data.tobytes()

    def test_overflow_mid_run_is_domain_error(self, tmp_path):
        cfg = write_config(tmp_path, extra="guidance.transform = pyramid\nguidance.scales = 3,1.5\n")
        for sampler in ("euler", "heun"):
            proc = subprocess.run(
                [sys.executable, "-m", "freqguide", "sample", "--config", cfg, "--sampler", sampler,
                 "--set", "guidance.scales=1e300,1e300", "--out", str(tmp_path / "x.fqg")],
                capture_output=True, text=True,
            )
            assert proc.returncode == 6, proc.stderr
            assert "error [domain]" in proc.stderr
            assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
            assert not (tmp_path / "x.fqg").exists()

    def test_infinite_sigma_max_is_domain_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "freqguide", "sample", "--config", write_config(tmp_path),
             "--set", "schedule.sigma_max=inf", "--out", str(tmp_path / "x.fqg")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 6, proc.stderr
        assert "error [domain]" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not (tmp_path / "x.fqg").exists()

    def test_error_category_on_stderr(self, tmp_path):
        missing = str(tmp_path / "nope.cfg")
        proc = subprocess.run(
            [sys.executable, "-m", "freqguide", "sample", "--config", missing,
             "--out", str(tmp_path / "x.fqg")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert "error [config]" in proc.stderr
