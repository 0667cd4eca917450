import argparse
import csv
import inspect
import json
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import all_means, fqg1_bytes

from freqguide import (
    ConfigError,
    GuidanceConfig,
    NormRecorder,
    Tensor4,
    TransformKind,
    band_energy_fraction,
    default_tau,
    degrade,
    freqcfg_combine,
    make_denoiser_pair,
    mode_report,
    read_tensor,
    sample,
    saturation_proxy,
    write_tensor,
)
from freqguide import cli, tensor
from freqguide.cli import main
from freqguide.config import Config, parse_config_text
from freqguide.frequency import analyze

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

    @pytest.mark.parametrize(
        "kind, key",
        [("single", f"mixture.{name}") for name in cli.KIND_KEYS["blob"].split()] + [("blob", "mixture.mean_value")],
    )
    def test_keys_of_the_other_mixture_kind_are_config_errors(self, tmp_path, capsys, monkeypatch, kind, key):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled with a key the mixture kind does not read")

        monkeypatch.setattr(cli, "sample", no_sampling)
        config = tmp_path / "run.cfg"
        config.write_text(TestSingleGaussianConfig.CONFIG if kind == "single" else BASE_CONFIG)
        out = str(tmp_path / "x.fqg")
        assert run_cli("sample", "--config", str(config), "--set", f"{key}=1", "--out", out) == 3
        assert f"error [config]: {key} given but mixture.kind = {kind}" in capsys.readouterr().err
        assert not os.path.exists(out)


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


    @pytest.mark.parametrize(
        "extra, message",
        [
            ("guidance.transform = haar\nguidance.levels = 3\n", "guidance.levels = 3: haar transform is single-level"),
            ("guidance.levels = 3\n", "guidance.levels given but guidance.transform = none"),
        ],
        ids=["haar", "no-transform"],
    )
    def test_levels_the_transform_does_not_use_are_config_errors(self, tmp_path, capsys, monkeypatch, extra, message):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before guidance.levels was rejected")

        monkeypatch.setattr(cli, "sample", no_sampling)
        out = str(tmp_path / "x.fqg")
        assert run_cli("sample", "--config", write_config(tmp_path, extra=extra), "--out", out) == 3
        err = capsys.readouterr().err
        assert "error [config]" in err and message in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("name", ["sigma_min", "rho"])
    def test_karras_keys_under_a_linear_schedule_are_config_errors(self, tmp_path, capsys, name):
        """A linear schedule reads neither ``schedule.sigma_min`` nor
        ``schedule.rho``; giving one is an error, not a silent default."""
        karras = {"sigma_min": "schedule.sigma_min = 0.02\n", "rho": "schedule.rho = 7\n"}
        linear = BASE_CONFIG.replace("schedule.kind = karras", "schedule.kind = linear")
        for line in karras.values():
            linear = linear.replace(line, "")
        cfg, out = tmp_path / "run.cfg", str(tmp_path / "x.fqg")
        cfg.write_text(linear + karras[name])
        assert run_cli("sample", "--config", str(cfg), "--out", out) == 3
        err = capsys.readouterr().err
        assert "error [config]" in err and f"schedule.{name} given but schedule.kind = linear" in err
        assert not os.path.exists(out)
        cfg.write_text(linear)
        assert run_cli("sample", "--config", str(cfg), "--out", out) == 0


class TestOverrideFlags:
    """Each command takes only the ``sample.*`` override flags it reads."""

    VALUES = {"--steps": "7", "--seed": "2", "--batch": "3", "--sampler": "heun"}
    READS = {
        "sample": ("--steps", "--seed", "--batch", "--sampler"),
        "analyze-norms": ("--steps", "--seed", "--batch", "--sampler"),
        "sweep": ("--steps", "--seed", "--sampler"),
        "gen-data": (),
    }

    @pytest.mark.parametrize("command", READS)
    def test_flags_the_command_does_not_read_are_usage_errors(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, extra="guidance.transform = pyramid\nsweep.samples = 2\n")
        grid = ("--grid", "1:1") if command == "sweep" else ()
        out = tmp_path / "out"
        for flag, value in self.VALUES.items():
            if flag not in self.READS[command]:
                with pytest.raises(SystemExit) as exc:
                    run_cli(command, "--config", cfg, *grid, flag, value, "--out", str(out))
                assert exc.value.code == 2
                assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
                assert not out.exists()
        if self.READS[command]:
            flags = [arg for flag in self.READS[command] for arg in (flag, self.VALUES[flag])]
            assert run_cli(command, "--config", cfg, *grid, *flags, "--out", str(out)) == 0
            recorded = json.loads((tmp_path / "out.manifest.json").read_text())["config"]
            for flag in self.READS[command]:
                assert recorded["sample." + flag[2:]] == self.VALUES[flag]


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
            d_c.data, d_u.data, GuidanceConfig(transform=TransformKind.pyramid(1), scales=(2.5, 0.5))
        )
        assert read_tensor(out).data.tobytes() == lib.tobytes()

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

    def test_haar_with_levels_is_usage_error(self, tmp_path, capsys):
        _, _, pc, pu = self.make_dumps(tmp_path)
        out = str(tmp_path / "x.fqg")
        code = run_cli("combine", "--cond", pc, "--uncond", pu, "--transform", "haar", "--levels", "2",
                       "--scales", "2,1", "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert "error [usage]" in err and "guidance.levels = 2" in err
        assert not os.path.exists(out)

    def test_haar_transform_flag(self, tmp_path):
        d_c, d_u, pc, pu = self.make_dumps(tmp_path)
        out = str(tmp_path / "g.fqg")
        run_cli("combine", "--cond", pc, "--uncond", pu, "--transform", "haar",
                "--w-low", "0.5", "--w-high", "2", "--out", out)
        ref = freqcfg_combine(
            d_c.data, d_u.data, GuidanceConfig(transform=TransformKind.haar(), scales=(2.0, 0.5))
        )
        assert read_tensor(out).data.tobytes() == ref.tobytes()


class TestStreamedCombine:
    """``combine`` on inputs 3 items longer than 2 blocks of ``BLOCK_VALUES``:
    3 blocks, split as evenly as items allow."""

    ITEM = (1, 16, 16)
    CAP = tensor.BLOCK_VALUES // int(np.prod(ITEM))  # items per full block
    BATCH = 2 * CAP + 3
    SIZES = [BATCH // 3 + 1, BATCH // 3, BATCH // 3]  # BATCH % 3 == 1: the larger block first

    def make_dumps(self, tmp_path, last_cond=None, last_uncond=None):
        d_c = rng.uniform(-2, 2, (self.BATCH,) + self.ITEM)
        d_u = rng.uniform(-2, 2, (self.BATCH,) + self.ITEM)
        if last_cond is not None:
            d_c[-1] = last_cond
        if last_uncond is not None:
            d_u[-1] = last_uncond
        pc, pu = tmp_path / "c.fqg", tmp_path / "u.fqg"
        pc.write_bytes(fqg1_bytes(d_c))
        pu.write_bytes(fqg1_bytes(d_u))
        return d_c, d_u, str(pc), str(pu)

    @pytest.mark.parametrize(
        "flags, kind, scales, weights",
        [
            (("--scales", "3,1.5"), TransformKind.pyramid(1), (3.0, 1.5), None),
            (("--levels", "2", "--scales", "3,2,1.5", "--parallel-weights", "0.5,0.5,1"),
             TransformKind.pyramid(2), (3.0, 2.0, 1.5), (0.5, 0.5, 1.0)),
            (("--transform", "haar", "--scales", "4,0.5", "--parallel-weights", "0.25,1"),
             TransformKind.haar(), (4.0, 0.5), (0.25, 1.0)),
        ],
        ids=["unit-weights", "pyramid2-parallel", "haar-parallel"],
    )
    def test_output_equals_whole_batch_call(self, tmp_path, flags, kind, scales, weights):
        assert self.CAP > 1 and sum(self.SIZES) == self.BATCH
        d_c, d_u, pc, pu = self.make_dumps(tmp_path)
        out = str(tmp_path / "g.fqg")
        assert run_cli("combine", "--cond", pc, "--uncond", pu, *flags, "--out", out) == 0
        cfg = GuidanceConfig(transform=kind, scales=scales, parallel_weights=weights)
        whole = freqcfg_combine(d_c, d_u, cfg)
        assert Path(out).read_bytes() == fqg1_bytes(whole)

    def assert_nothing_written(self, tmp_path, out, before):
        assert out.read_bytes() == before
        assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]

    @pytest.mark.parametrize(
        "last, flags, code, category",
        [
            ({"last_uncond": np.nan}, ("--scales", "2,1"), 4, "shape"),
            ({"last_cond": 1e307, "last_uncond": -1e307}, ("--scales", "100,100"), 6, "domain"),
            ({"last_cond": 1e307, "last_uncond": -1e307}, ("--scales", "100,100", "--parallel-weights", "0.5,1"),
             6, "domain"),
        ],
        ids=["nan-in-last-item", "overflow-in-last-chunk", "overflow-in-last-chunk-weighted"],
    )
    def test_bad_last_chunk_leaves_no_output(self, tmp_path, capsys, last, flags, code, category):
        _, _, pc, pu = self.make_dumps(tmp_path, **last)
        out = tmp_path / "g.fqg"
        out.write_bytes(b"earlier output")
        assert run_cli("combine", "--cond", pc, "--uncond", pu, *flags, "--out", str(out)) == code
        assert f"error [{category}]" in capsys.readouterr().err
        self.assert_nothing_written(tmp_path, out, b"earlier output")
        assert not (tmp_path / "g.fqg.manifest.json").exists()

    @pytest.mark.parametrize("damage", ["truncated", "over-long"])
    def test_bad_file_size_fails_before_compute(self, tmp_path, capsys, monkeypatch, damage):
        _, _, pc, pu = self.make_dumps(tmp_path)
        blob = Path(pu).read_bytes()
        Path(pu).write_bytes(blob[:-5] if damage == "truncated" else blob + b"\x00")
        monkeypatch.setattr(cli, "freqcfg_combine", lambda *a: pytest.fail("combined a chunk"))
        out = tmp_path / "g.fqg"
        out.write_bytes(b"earlier output")
        assert run_cli("combine", "--cond", pc, "--uncond", pu, "--scales", "2,1", "--out", str(out)) == 5
        assert "error [format]" in capsys.readouterr().err
        self.assert_nothing_written(tmp_path, out, b"earlier output")

    def test_one_library_call_per_chunk(self, tmp_path, monkeypatch):
        # the benchmark marks the end of set-up at the first call of cli.freqcfg_combine
        _, _, pc, pu = self.make_dumps(tmp_path)
        sizes = []

        def spy(d_c, d_u, cfg, **kwargs):
            sizes.append(len(d_c))
            return freqcfg_combine(d_c, d_u, cfg, **kwargs)

        monkeypatch.setattr(cli, "freqcfg_combine", spy)
        assert run_cli("combine", "--cond", pc, "--uncond", pu, "--scales", "2,1",
                       "--out", str(tmp_path / "g.fqg")) == 0
        assert sizes == self.SIZES

    def test_memory_does_not_grow_with_the_batch(self, tmp_path):
        dims = (1024, 3, 32, 32)  # 24 MiB per input
        paths = []
        for name in ("c", "u"):
            paths.append(tmp_path / f"{name}.fqg")
            paths[-1].write_bytes(fqg1_bytes(rng.uniform(-2, 2, dims)))
        input_bytes = paths[0].stat().st_size
        tracemalloc.start()
        try:
            code = run_cli("combine", "--cond", str(paths[0]), "--uncond", str(paths[1]),
                           "--levels", "2", "--scales", "3,2,1.5", "--parallel-weights", "0.5,0.5,1",
                           "--out", str(tmp_path / "g.fqg"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < input_bytes, f"peak {peak / 2**20:.1f} MiB for {input_bytes / 2**20:.1f} MiB inputs"


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


    def test_one_guided_step_is_config_error_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            extra="guidance.transform = haar\nguidance.scales = 2,2\nguidance.interval = 0.1:0.05\n",
        )
        # t = 1 - i/12 is in [0.05, 0.1] at i = 11 only
        out = str(tmp_path / "n.csv")
        assert run_cli("analyze-norms", "--config", cfg, "--out", out, "--steps", "12") == 3
        err = capsys.readouterr().err
        assert "error [config]" in err
        assert "guidance.interval = 0.1:0.05" in err and "1 of sample.steps = 12" in err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_one_block_csv_holds_whole_batch_norms(self, tmp_path):
        """A batch of one block: each norm is the square root of its band's
        sum of squares over the batch, and high_norm that of the squared
        detail-band norms summed."""
        cfg_path = write_config(
            tmp_path,
            extra="guidance.transform = pyramid\nguidance.levels = 2\nguidance.scales = 3,2,1.5\n",
        )
        out = tmp_path / "norms.csv"
        assert run_cli("analyze-norms", "--config", cfg_path, "--out", str(out), "--batch", "16") == 0
        cfg = Config.from_path(cfg_path)
        cfg.apply_overrides(["sample.batch=16"])
        mix, labels = cli.build_model(cfg)
        run = cli.build_run(cfg, mix.image_shape, cli.build_guidance(cfg, mix.image_shape))
        assert len(tensor.blocks(run.batch, run.shape)) == 1
        rows = []

        class WholeBatchNorms(NormRecorder):
            def observe(self, step, t, sigma, delta, kind):
                norms = [float(np.sqrt(np.einsum("i,i->", b.ravel(), b.ravel()))) for b in analyze(delta, kind)]
                rows.append((step, t, sigma, norms[-1], float(np.sqrt(sum(n**2 for n in norms[:-1])))))

        sample(cli.build_pair(cfg, make_denoiser_pair(mix, labels)), run, recorder=WholeBatchNorms())
        assert out.read_bytes() == tensor.csv_to_bytes(["step", "t", "sigma", "low_norm", "high_norm"], rows)

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
        config = write_config(tmp_path)
        if "mixture.kind=single" in settings:  # a single Gaussian rejects the blob keys
            config = str(tmp_path / "single.cfg")
            Path(config).write_text(TestSingleGaussianConfig.CONFIG)
        argv = ("sweep", "--config", config, *overrides, "--grid", "1:1", "--out", out)
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

    def test_unknown_class_named_before_sampling(self, tmp_path, capsys, monkeypatch):
        """The metric target is the pair's class subset, so the error names
        the classes the labels have, as ``sample``'s does."""
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the class was checked")

        monkeypatch.setattr(cli, "sample", no_sampling)
        cfg = write_config(tmp_path, extra="sweep.samples = 2\n")
        argv = ("--config", cfg, "--set", "sample.condition=7", "--grid", "1:1", "--out", str(tmp_path / "s.csv"))
        assert run_cli("sweep", *argv) == 3
        assert "error [config]: unknown class 7; have [0, 1]" in capsys.readouterr().err

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

    def test_jitter_rel_walks_the_means_in_chunks(self, monkeypatch):
        """On 1024 components with separable factors, the mean norm and the
        jitter take a block of components at a time: the model never builds
        its 24 MiB of means, and the jitter scale and degraded means have the
        bytes of whole-model arrays."""
        centers = ",".join(f"{r + 0.5}:{c + 0.5}" for r in range(0, 32, 2) for c in range(0, 32, 2))
        cfg = Config({
            "mixture.centers": centers, "mixture.classes": "4", "autoguide.enabled": "true",
            "autoguide.jitter_rel": "0.05", "autoguide.seed": "7",
        })
        mix, labels = cli.build_model(cfg)
        assert mix.table is None
        degraded = []

        def spy(*args, **kwargs):
            degraded.append((kwargs, degrade(*args, **kwargs)))
            return degraded[-1][1]

        monkeypatch.setattr(cli, "degrade", spy)
        tracemalloc.start()
        try:
            cli.build_pair(cfg, make_denoiser_pair(mix, labels))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "means" not in vars(mix)
        means_bytes = mix.n_components * mix.dim * 8
        # the degraded means plus a few chunks; 52.7 MiB when the whole model was built and jittered
        assert peak < 1.5 * means_bytes, f"peak {peak / 2**20:.1f} MiB"
        (kwargs, got), = degraded
        means = all_means(mix)
        flat = means.reshape(mix.n_components, -1)
        jitter = 0.05 * float(np.mean(np.sqrt(np.sum(flat**2, axis=1))))
        assert kwargs["jitter_scale"] == jitter
        noise = np.random.Generator(np.random.Philox(key=7)).standard_normal(means.shape)
        assert got.means.tobytes() == (means + jitter * noise).tobytes()

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

    @pytest.mark.parametrize("key", ["autoguide.jitter", "autoguide.jitter_rel", "autoguide.inflate", "autoguide.seed"])
    def test_key_without_autoguide_is_config_error(self, tmp_path, capsys, monkeypatch, key):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the key was rejected")

        monkeypatch.setattr(cli, "sample", no_sampling)
        out = str(tmp_path / "x.fqg")
        assert run_cli("sample", "--config", write_config(tmp_path), "--set", f"{key}=1", "--out", out) == 3
        err = capsys.readouterr().err
        assert "error [config]" in err and f"{key} given but autoguide.enabled = false" in err
        assert not os.path.exists(out)


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

    def test_factored_model_writes_whole_build_bytes_without_its_means(self, tmp_path, monkeypatch):
        build, built = cli.blob_mixture_from_spec, []

        def keep(spec):
            built.append(build(spec))
            return built[-1]

        monkeypatch.setattr(cli, "blob_mixture_from_spec", keep)
        monkeypatch.setattr(tensor, "BLOCK_VALUES", 5 * 16 * 16)  # 16 components in 4 blocks
        out_dir = str(tmp_path / "data")
        argv = ["--set", "mixture.centers=4:4,4:12,12:4,12:12", "--set", "mixture.classes=4"]
        assert run_cli("gen-data", "--config", write_config(tmp_path), *argv, "--out", out_dir) == 0
        (mix,) = built
        assert mix.table is None and "means" not in vars(mix)
        means = all_means(mix)
        for idx in range(mix.n_components):
            got = read_tensor(os.path.join(out_dir, f"mean_{idx:03d}.fqg"))
            assert got.data.tobytes() == means[idx].tobytes()

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


class TestFileModes:
    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask-022", "umask-027"])
    def test_outputs_get_the_mode_open_gives(self, tmp_path, umask):
        cfg = write_config(tmp_path, extra="guidance.transform = haar\nguidance.scales = 2,2\n")
        old = os.umask(umask)
        try:
            plain = tmp_path / "plain"
            with open(plain, "w"):
                pass
            assert run_cli("sample", "--config", cfg, "--out", str(tmp_path / "s.fqg")) == 0
            assert run_cli("combine", "--cond", str(tmp_path / "s.fqg"), "--uncond", str(tmp_path / "s.fqg"),
                           "--scales", "2,1", "--out", str(tmp_path / "c.fqg")) == 0
            assert run_cli("analyze-norms", "--config", cfg, "--out", str(tmp_path / "n.csv")) == 0
            assert run_cli("gen-data", "--config", cfg, "--out", str(tmp_path / "data")) == 0
        finally:
            os.umask(old)
        want = stat.S_IMODE(plain.stat().st_mode)
        assert want == 0o666 & ~umask
        outputs = [p for p in tmp_path.rglob("*") if p.is_file() and p.name not in ("plain", "run.cfg")]
        assert len(outputs) == 6 + 4 + 2  # 3 commands x (output, manifest), 4 means, mixture.txt, manifest
        assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in outputs} == {p.name: want for p in outputs}


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
            d_c.data, d_u.data, GuidanceConfig(transform=TransformKind.pyramid(1), scales=(4.0, 1.5))
        )
        assert read_tensor(out).data.tobytes() == lib.tobytes()

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

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            # the component step: ‖z‖² of noise at σ = 1e160 overflows
            (("sample", "--set", "schedule.sigma_max=1e160"), 6, "|z|^2 overflows float64 at sigma=1e+160"),
            (("sweep", "--grid", "1:1", "--set", "schedule.sigma_max=1e160"), 6, "|z|^2 overflows"),
            # parallel weights take the band path
            (("sample", "--set", "schedule.sigma_max=1e160", "--set", "guidance.parallel_weights=0.5,1"), 6,
             "|z|^2 overflows float64 at sigma=1e+160"),
            (("sample", "--set", "schedule.sigma_max=1e308"), 6, "overflows float64 at sigma_max=1e+308"),
            # d_c = d_u: every norm would be zero
            (("analyze-norms", "--set", "sample.condition=null"), 3, "analyze-norms needs a class in sample.condition"),
            # the degraded model's seed keys a Philox stream
            *(
                ((*command, "--set", "autoguide.enabled=true", "--set", f"autoguide.seed={seed}"), 3,
                 f"error [config]: autoguide.seed: RNG key {seed} is outside Philox's range [0, 2**128)")
                for command, seed in ((("sample",), -1), (("sweep", "--grid", "1:1"), -1), (("analyze-norms",), 2**128))
            ),
        ],
        ids=[
            "sample-1e160", "sweep-1e160", "band-path-1e160", "sample-1e308", "analyze-norms-null-condition",
            "sample-autoguide-seed", "sweep-autoguide-seed", "analyze-norms-autoguide-seed",
        ],
    )
    def test_categorized_without_warnings(self, tmp_path, capsys, argv, code, message):
        cfg = write_config(tmp_path, extra="guidance.transform = haar\nguidance.scales = 2,1.5\nsweep.samples = 4\n")
        out = str(tmp_path / "x.out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv[0], "--config", cfg, *argv[1:], "--out", out) == code
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_autoguide_seed_outside_the_key_range_is_config_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "freqguide", "sample", "--config", write_config(tmp_path),
             "--set", "autoguide.enabled=true", "--set", "autoguide.seed=-1", "--out", str(tmp_path / "x.fqg")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert "error [config]: autoguide.seed" in proc.stderr
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


class TestErrorPaths:
    """Errors that end before any output, each in its category's exit code."""

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (("sample", "--set", "mixture.kind=gmm"), 3, "[config]: mixture.kind must be blob or single, got 'gmm'"),
            (("sample", "--set", "schedule.kind=cosine"), 3,
             "[config]: schedule.kind must be linear or karras, got 'cosine'"),
            (("sample", "--set", "guidance.transform=wavelet"), 3,
             "[config]: guidance.transform must be pyramid, haar or none, got 'wavelet'"),
            (("sample", "--set", "sample.condition=abc"), 3,
             "[config]: sample.condition must be an integer or 'null', got 'abc'"),
            (("sample", "--set", "guidance.transform=pyramid", "--set", "guidance.levels=2", "--set", "guidance.w_low=2"),
             3, "[config]: guidance.w_low/w_high need a 2-band transform"),
            (("sample", "--set", "guidance.scales"), 3, "[config]: override 'guidance.scales' must look like key=value"),
            (("sample", "--config", "{missing}"), 3, "[config]: cannot read config {missing}"),
            (("gen-data", "--config", "{single}"), 3, "[config]: gen-data needs mixture.kind = blob"),
            (("sweep", "--grid", "1:1", "--set", "sweep.samples=0"), 3, "[config]: sweep.samples: batch must be >= 1"),
            (("sweep", "--grid", "1"), 2, "[usage]: '--grid': '1' in '1' must have 2 ':'-separated numbers"),
            (("combine", "--cond", "{cond}", "--uncond", "{cond}"), 2, "[usage]: give --scales or --w-low/--w-high"),
            (("combine", "--cond", "{missing}", "--uncond", "{cond}", "--scales", "2,1"), 7,
             "[io]: [Errno 2] No such file or directory: '{missing}'"),
            # a condition whose class holds every component: d_c = d_u, as for a null condition
            (("sweep", "--config", "{sweep}", "--grid", "1:1,1:3,3:3", "--set", "mixture.classes=1",
              "--set", "mixture.class_center_weights=0.45:0.3:0.05:0.2"), 3,
             "[config]: sweep needs a class in sample.condition that is not the whole mixture"),
            (("analyze-norms", "--config", "{single}", "--set", "mixture.height=8", "--set", "mixture.width=8",
              "--set", "sample.condition=0", "--set", "guidance.transform=haar"), 3,
             "[config]: analyze-norms needs a class in sample.condition that is not the whole mixture"),
            # sizes past the 128 TiB user address space: nothing is allocated
            (("sample", "--set", "mixture.channels=1000000000000000"), 3,
             "[config]: mixture.channels = 1000000000000000 x mixture.height = 16 x mixture.width = 16: "
             "each must be >= 1 and their product at most 2**44 float64 values"),
            (("sample", "--config", "{single}", "--set", "mixture.height=100000000000000000000"), 3,
             "[config]: mixture.channels = 1 x mixture.height = 100000000000000000000 x mixture.width = 4: each"),
            (("sample", "--config", "{single}", "--set", "mixture.channels=-1"), 3,
             "[config]: mixture.channels = -1 x mixture.height = 4 x mixture.width = 4: each must be >= 1"),
            (("sample", "--batch", "1000000000000000"), 3,
             "[config]: sample.batch = 1000000000000000 x mixture.channels = 1 x mixture.height = 16 x "
             "mixture.width = 16: each"),
            (("sweep", "--grid", "1:1", "--set", "sweep.samples=1000000000000000"), 3,
             "[config]: sweep.samples = 1000000000000000 x mixture.channels = 1 x"),
        ],
        ids=[
            "mixture-kind", "schedule-kind", "guidance-transform", "condition", "w-low-at-two-levels", "set-without-equals",
            "missing-config", "gen-data-single", "sweep-no-samples", "grid-one-number", "combine-no-scales",
            "combine-missing-input", "sweep-one-class", "analyze-norms-single-kind", "channels-past-address-space",
            "height-past-address-space", "negative-channels", "batch-past-address-space", "samples-past-address-space",
        ],
    )
    def test_category_code_and_message(self, tmp_path, capsys, monkeypatch, argv, code, message):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the error")

        monkeypatch.setattr(cli, "sample", no_sampling)
        single = tmp_path / "single.cfg"
        single.write_text(TestSingleGaussianConfig.CONFIG)
        cond = str(tmp_path / "c.fqg")
        write_tensor(cond, Tensor4(np.zeros((1, 1, 4, 4))))
        sweep = str(ROOT / "perfbench" / "sweep.cfg")
        names = {"missing": str(tmp_path / "nope"), "single": str(single), "cond": cond, "sweep": sweep}
        argv = [arg.format(**names) for arg in argv]
        if argv[0] != "combine" and "--config" not in argv:
            argv[1:1] = ["--config", write_config(tmp_path)]
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == code
        assert f"freqguide: error {message.format(**names)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_output_names_the_given_path(self, tmp_path, capsys, target):
        out = tmp_path / "no" / "such" / "x.fqg" if target == "missing-directory" else tmp_path
        assert run_cli("sample", "--config", write_config(tmp_path), "--out", str(out)) == 7
        err = capsys.readouterr().err
        assert err.startswith("freqguide: error [io]: [Errno ") and err.endswith(f": {str(out)!r}\n")
        assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]
