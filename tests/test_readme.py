import shlex
from pathlib import Path

from freqguide import Tensor4
from freqguide.cli import build_parser

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
