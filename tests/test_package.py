import re
from pathlib import Path

import alignedchains

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_resolve_once():
    names = alignedchains.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(alignedchains, name)]
    assert not missing


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library example\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under '## Library example'"
    exec(compile(match.group(1), str(README), "exec"), {})
