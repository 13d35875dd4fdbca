"""The README's Library snippets, run against its worked example's line.txt."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippets_print_what_the_readme_says(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    line_txt = re.search(r"`line\.txt`[^\n]*\n\n```\n(.*?)```", text, re.S).group(1)
    library = text.split("\n## Library\n", 1)[1]
    snippets = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(snippets) == 2
    (tmp_path / "line.txt").write_text(line_txt, encoding="utf-8")
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
