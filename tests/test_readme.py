"""The README's Python example runs on the exported names alone and prints
what the README says it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(language: str) -> str:
    (block,) = re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return block


def test_readme_python_example_prints_its_documented_output():
    code = _block("python")
    imported = re.search(r"from ghznet import \((.*?)\)", code, re.S).group(1)
    import ghznet

    assert {name.strip() for name in imported.split(",") if name.strip()} <= set(dir(ghznet))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == _block("text")
