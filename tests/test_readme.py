from pathlib import Path

from freqguide import Tensor4

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
