import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs_as_written():
    # the README's constructor example, run verbatim, so it follows the field rules
    text = README.read_text(encoding="utf-8")
    (sketch,) = re.findall(r"## Library sketch\n\n```python\n(.*?)```", text, re.S)
    namespace = {}
    exec(compile(sketch, f"{README}:Library sketch", "exec"), namespace)
    assert abs(namespace["report"].nbar_total - 1.0) < 1e-9
    assert namespace["modes"]
