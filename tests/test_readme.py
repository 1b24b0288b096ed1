"""README.md runs as written: its CLI examples and its library examples."""

from __future__ import annotations

import builtins
import inspect
import re
import shlex

import pytest

from kg_reason import cli, errors

from helpers import FIXTURES

ROOT = FIXTURES.parents[1]


def _first_block(after: str, language: str) -> str:
    """The first ``language`` code block of README.md after the text ``after``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index(after)
    return re.search(rf"```{language}\n(.*?)```", readme[start:], re.DOTALL).group(1)


def _cli_examples() -> list[list[str]]:
    commands = []
    for command in _first_block("\n## CLI\n", "bash").replace("\\\n", " ").splitlines():
        if command.strip() and not command.lstrip().startswith("#"):
            argv = shlex.split(command)
            assert argv[0] == "kg-reason"
            commands.append(argv[1:])
    return commands


def test_readme_has_four_cli_examples():
    assert [argv[0] for argv in _cli_examples()] == ["verify", "answer", "eval", "eval"]


@pytest.mark.parametrize("argv", _cli_examples(), ids=lambda argv: argv[0])
def test_readme_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    if "--report" in argv:
        argv[argv.index("--report") + 1] = str(tmp_path / "report.json")
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert capsys.readouterr().out


def _printed_comments(block: str) -> list[str]:
    """The comment on each ``print(`` line: what that line prints."""
    return [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]


def test_readme_library_example_prints_its_comments(monkeypatch, capsys):
    block = _first_block("\n## Library use\n", "python")
    expected = _printed_comments(block)
    assert len(expected) == 2
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize(
    "after",
    ["The graph answers in ids", "Batch runs take a ready `Pipeline`"],
    ids=["id-level", "batch"],
)
def test_readme_example_runs_after_the_first(after, monkeypatch, capsys):
    # a renamed graph reader or batch entry point fails here rather than leaving the README stale
    first = _first_block("\n## Library use\n", "python")
    block = _first_block(after, "python")
    expected = _printed_comments(block)
    assert len(expected) == 3
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(compile(first, "README.md", "exec"), namespace)
    capsys.readouterr()
    exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.splitlines() == expected


def test_readme_names_every_error_class_and_only_those():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    defined = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    }
    named = {m.rsplit(".", 1)[-1] for m in re.findall(r"`([\w.]*Error)`", readme)}
    assert sorted(defined - named) == []  # every class is documented
    # a name that is not Python's own is attributed to kg_reason, so it must exist there
    assert sorted(n for n in named - defined if not hasattr(builtins, n)) == []
