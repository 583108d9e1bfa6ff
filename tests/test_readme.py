"""The README's Python example runs on the exported names alone and prints
what the README says it prints, and the README names every configuration
key and every subcommand there is and no other."""

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


def test_readme_documents_exactly_the_configuration_keys():
    from ghznet.config import SCHEMA

    sections = "|".join(sorted({key.split(".")[0] for key in SCHEMA}))
    # a key is a section and a name not inside a longer dotted or path-like
    # word: `ghznet.network` and `tests/test_memory.py` are no keys
    pattern = rf"(?<![\w./])(?:{sections})\.\w+"
    named = set(re.findall(pattern, README.read_text(encoding="utf-8")))
    assert named == set(SCHEMA)


def _command_lines() -> list[str]:
    """The `ghznet ...` lines of the Command line section's sh blocks,
    continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = "".join(re.findall(r"```sh\n(.*?)```", section, re.S)).replace("\\\n", " ")
    return re.findall(r"^\s*(ghznet .*)$", blocks, re.M)


def test_readme_command_block_names_exactly_the_subcommands():
    import argparse

    from ghznet.cli import build_parser

    named = {line.split()[1] for line in _command_lines()}
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert named == set(subparsers.choices)


def test_readme_command_lines_parse():
    # a flag the parser no longer has cannot linger in the documented commands
    import contextlib
    import shlex

    from ghznet.cli import build_parser

    lines = _command_lines()
    refused = []
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                build_parser().parse_args(argv)
        except SystemExit:
            refused.append(line)
    assert len(lines) >= 10
    assert refused == []


def test_readme_paths_exist():
    # a backticked token with a slash and a file extension names a file of
    # the repository, such as tests/test_memory.py
    root = README.parent
    paths = re.findall(r"`([\w.-]+(?:/[\w.-]+)+\.[A-Za-z]\w*)`", README.read_text(encoding="utf-8"))
    assert paths
    assert [path for path in paths if not (root / path).exists()] == []
