import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    # the example must keep to the public API, so a deleted export
    # cannot leave the README stale
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert example is not None, "no python block under the Library heading"
    exec(compile(example.group(1), f"{README}:Library", "exec"), {})
