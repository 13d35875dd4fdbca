"""The README's worked example, run command by command, its Library
snippets, run against the example's line.txt, and its command synopsis,
checked against the command-line parser."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

from leavitt import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _write_file_block(text: str, name: str, where: Path) -> None:
    """Write the code block that closes the paragraph naming `name`."""
    block = re.search(rf"`{re.escape(name)}`(?:(?!\n\n).)*\n\n```\n(.*?)```", text, re.S)
    (where / name).write_text(block.group(1), encoding="utf-8")


def test_worked_example_prints_what_the_readme_says(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    example = text.split("\n### Worked example\n", 1)[1].split("\n### ", 1)[0]
    for name in ("line.txt", "rose.txt"):
        _write_file_block(example, name, tmp_path)
    monkeypatch.chdir(tmp_path)
    ran = []
    for block in re.findall(r"```\n(.*?)```", example, re.S):
        # each `$ leavitt` line, then the lines it prints up to the next one
        for command, printed in re.findall(r"^\$ leavitt (.*)\n((?:(?!\$ ).*\n)*)", block, re.M):
            argv = shlex.split(command)
            if argv[:2] == ["desourcify", "spiky.txt"]:  # the README gives no spiky.txt
                continue
            assert (cli.run(argv), capsys.readouterr()) == (0, (printed, "")), command
            ran.append(argv[0])
    assert set(ran) == {"analyze", "corner", "verify", "move", "monoid"}


def test_library_snippets_print_what_the_readme_says(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1]
    snippets = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(snippets) == 2
    _write_file_block(text, "line.txt", tmp_path)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for code in snippets:
        exec(compile(code, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert printed == [
        "0",
        "True",
        "Graph(4 vertices, 5 edges)",
        "delta ; delta + 1/2 * delta.alpha ; delta.alpha",
        "3/2 * v1 - 1/2 * delta.gamma ; delta.gamma",
        "True",
        "0",
        "None",
    ]
    # each print's trailing comment starts with the value it prints
    comments = [m.group(1) for code in snippets
                for m in re.finditer(r"^print\(.*\)\s+# (.*)$", code, re.M)]
    assert len(comments) == len(printed)
    for value, comment in zip(printed, comments):
        assert comment == value or comment.startswith(value + ":"), (value, comment)


def _synopsis(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """Each command path of the parser, with its optional flags."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, {o for a in parser._actions for o in a.option_strings
                     if o.startswith("--") and o != "--help"}
    for action in subs:
        for name, child in action.choices.items():
            yield from _synopsis(child, path + (name,))


def _usage_block(lines: list[str]) -> dict[tuple[str, ...], set[str]]:
    commands = {}
    for line in lines:
        words = line.split()
        path = tuple(w for w in words[:3] if w[0] not in "<[-")
        assert path not in commands, line
        commands[path] = set(re.findall(r"--[a-z][a-z-]*", line))
    return commands


def test_usage_synopses_list_every_command_and_flag():
    readme = README.read_text(encoding="utf-8").split("\n## Command-line usage\n", 1)[1]
    block = re.search(r"```\n(.*?)```", readme, re.S).group(1).splitlines()
    assert all(line.startswith("leavitt ") for line in block)
    block = [line.removeprefix("leavitt ") for line in block]
    assert _usage_block(block) == dict(_synopsis(cli._build_parser()))
    # the module docstring repeats the synopsis
    docstring = cli.__doc__.split("Subcommands::\n\n", 1)[1].split("\n\n", 1)[0]
    assert [line.strip() for line in docstring.splitlines()] == block
