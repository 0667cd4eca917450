import shlex
from pathlib import Path

from freqguide import Tensor4
from freqguide.cli import CONFIG_KEYS, build_guidance, build_model, build_parser, build_run
from freqguide.config import Config, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs_as_written():
    """README's "Library tour" block runs against the public API as it stands."""
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md (Library tour)", "exec"), scope)
    images = scope["images"]
    assert isinstance(images, Tensor4)
    assert images.dims == (scope["run"].batch,) + scope["mix"].image_shape == (16, 3, 32, 32)


def test_cli_block_parses():
    """Every command in README's "CLI" block parses with the program's own parser."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    commands = [shlex.split(line) for line in lines if line]
    assert all(argv[0] == "freqguide" for argv in commands)
    parser = build_parser()
    parsed = {parser.parse_args(argv[1:]).command for argv in commands}
    assert parsed == {"gen-data", "sample", "combine", "analyze-norms", "sweep"}


def test_config_block_builds_a_run():
    """README's "Config keys" block is a config as written: every key is
    known, and it builds the model, the guidance and the run."""
    section = README.read_text(encoding="utf-8").split("### Config keys", 1)[1]
    block = section.split("```ini", 1)[1].split("```", 1)[0]
    cfg = Config(parse_config_text(block, "README.md (Config keys)"))
    assert set(cfg.values) <= CONFIG_KEYS
    mix, _ = build_model(cfg)
    run = build_run(cfg, mix.image_shape, build_guidance(cfg, mix.image_shape))
    assert run.shape == mix.image_shape == (3, 32, 32) and run.guidance.scales == (3.0, 1.5)
