"""README's python examples run as written."""

import re
from pathlib import Path

import valsketch as vs

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    """The library example and the plug-in example, in order, in one
    namespace (the second uses the first's import)."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 2
    names = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), names)
    assert names["report"].sound and names["report"].within_bound
    sketch, additive = names["sketch"], names["additive"]
    assert isinstance(sketch, vs.Sketch) and sketch.n == additive.n == 10
    full = vs.bitsets.full_mask(10)
    assert vs.evaluate(sketch, full) <= additive._value(full) * (1 + vs.RELATIVE_TOL)
