"""End-to-end command-line tests driven through :func:`leavitt.cli.run`."""

from __future__ import annotations

import ast
import subprocess
import sys

import pytest

from conftest import (
    arrow,
    funnel_into_cycle,
    looped_pair,
    rose2,
    single_loop,
    triangle,
    two_way_line,
)
from leavitt.cli import run
from leavitt.graph import Edge, Graph, graph_hash, parse_graph, serialize_graph
from leavitt.moves import attach_head, matrix_graph, parse_trace, replay


def write_graph(tmp_path, g, name="graph.txt"):
    path = tmp_path / name
    path.write_text(serialize_graph(g), encoding="utf-8")
    return str(path)


# ── analyze ───────────────────────────────────────────────────────────────────


def test_analyze_rose_default_unit_rank(tmp_path, capsys):
    assert run(["analyze", write_graph(tmp_path, rose2())]) == 0
    assert capsys.readouterr().out == (
        "rank_k0 0\n"
        "rank_k1(r=0) 0\n"
        "torsion none\n"
        "singular 0\n"
        "is_ck true\n"
        "strongly_graded true\n"
        "criterion4 true\n"
        "criterion5 true\n"
    )


def test_analyze_arrow_infinite_unit_rank(tmp_path, capsys):
    assert run(["analyze", write_graph(tmp_path, arrow()), "--unit-rank", "inf"]) == 0
    assert capsys.readouterr().out == (
        "rank_k0 1\n"
        "rank_k1(r=inf) inf\n"
        "torsion none\n"
        "singular 1\n"
        "is_ck false\n"
        "strongly_graded false\n"
        "criterion4 false\n"
        "criterion5 inapplicable: infinite unit-group rank\n"
    )


def test_analyze_finite_unit_rank(tmp_path, capsys):
    assert run(["analyze", write_graph(tmp_path, arrow()), "--unit-rank", "2"]) == 0
    out = capsys.readouterr().out
    assert "rank_k1(r=2) 2\n" in out
    assert "criterion5 false\n" in out


def test_analyze_rejects_bad_unit_rank(tmp_path, capsys):
    assert run(["analyze", write_graph(tmp_path, rose2()), "--unit-rank", "-3"]) == 2
    capsys.readouterr()


# int() alone also reads a sign, underscores, surrounding spaces and the
# digits of other scripts
NOT_ASCII_DECIMAL = ("+2", "1_0", " 3", "\u0663", "\uff12")


def test_counts_are_ascii_decimal_digits(tmp_path, capsys):
    path = write_graph(tmp_path, rose2())
    for text in NOT_ASCII_DECIMAL:
        assert run(["analyze", path, "--unit-rank", text]) == 2
        assert "unit rank must be a nonnegative integer or 'inf'" in capsys.readouterr().err
        assert run(["move", "attach-head", path, "v", text]) == 2
        assert "expected a positive integer" in capsys.readouterr().err
        assert run(["monoid", "equiv", path, "v:1", "v:1", "--steps", text]) == 2
        assert "expected a positive integer" in capsys.readouterr().err
        if text.strip() == text:
            assert run(["monoid", "full", path, f"v:{text}"]) == 1
            assert capsys.readouterr().err == "error: multiplicity of 'v' must be an integer\n"


# ── moves ─────────────────────────────────────────────────────────────────────


def test_move_attach_head_to_file(tmp_path, capsys):
    g = triangle()
    out_path = tmp_path / "out.txt"
    code = run(["move", "attach-head", write_graph(tmp_path, g), "u", "3",
                "--output", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert parse_graph(out_path.read_text(encoding="utf-8")) == attach_head(g, "u", 3)


def test_move_expand_hereditary_stdout(tmp_path, capsys):
    g = arrow()
    assert run(["move", "expand-hereditary", write_graph(tmp_path, g), "2"]) == 0
    out = capsys.readouterr().out
    parsed = parse_graph(out)
    assert "2" in parsed.vertices and "1" not in parsed.vertices


def test_move_subdivide_and_eliminate(tmp_path, capsys):
    g = triangle()
    assert run(["move", "subdivide", write_graph(tmp_path, g), "alpha", "2"]) == 0
    first = capsys.readouterr().out
    assert "alpha.v1" in first
    src = Graph(("s", "v"), (Edge("a", "s", "v"), Edge("l", "v", "v")))
    assert run(["move", "eliminate-source", write_graph(tmp_path, src, "s.txt"), "s"]) == 0
    assert parse_graph(capsys.readouterr().out) == Graph(("v",), (Edge("l", "v", "v"),))


def test_moves_refuse_inputs_that_would_change_the_algebra(tmp_path, capsys):
    # expanding {h} would drop the x component: L_2 + L_3 would become L_2
    two = Graph(
        ("h", "x"),
        (Edge("h1", "h", "h"), Edge("h2", "h", "h"),
         Edge("x1", "x", "x"), Edge("x2", "x", "x"), Edge("x3", "x", "x")),
    )
    # removing the isolated vertex u would drop K0 from rank 1 to rank 0
    isolated = Graph(("u",), ())
    calls = [
        ["move", "expand-hereditary", write_graph(tmp_path, two, "two.txt"), "h"],
        ["move", "eliminate-source", write_graph(tmp_path, isolated, "u.txt"), "u"],
    ]
    for argv, message in zip(calls, ["vertex 'x' does not reach", "source 'u' emits no edge"]):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_desourcify_writes_replayable_trace(tmp_path, capsys):
    g = funnel_into_cycle()
    with_src = attach_head(g, "5", 1)  # keeps the head's far end as a source
    graph_file = write_graph(tmp_path, with_src)
    trace_file = tmp_path / "trace.txt"
    assert run(["desourcify", graph_file, "--trace", str(trace_file)]) == 0
    out_graph = parse_graph(capsys.readouterr().out)
    trace = parse_trace(trace_file.read_text(encoding="utf-8"))
    assert replay(trace, with_src) == out_graph
    assert trace.records[-1].output_hash == graph_hash(out_graph)


def test_move_matrix_then_corner_is_the_corner_corollary(tmp_path, capsys):
    # the paper's closing corollary through the commands: the family of a
    # corner of the 2 x 2 matrix form verifies inside L(M_2 E)
    line = write_graph(tmp_path, two_way_line(), "line.txt")
    m2, fam = str(tmp_path / "m2.txt"), str(tmp_path / "fam.txt")
    assert run(["move", "matrix", line, "2", "--output", m2]) == 0
    assert (tmp_path / "m2.txt").read_text(encoding="utf-8") == serialize_graph(
        matrix_graph(two_way_line(), 2))
    assert run(["corner", m2, "--roots", "v2.h1", "--emit-family", "--output", fam]) == 0
    assert run(["verify", m2, fam]) == 0
    assert capsys.readouterr().out == "ok true\n"
    assert run(["move", "matrix", line, "1"]) == 0
    assert capsys.readouterr().out == (tmp_path / "line.txt").read_text(encoding="utf-8")
    for n in ("0", "x", "1_0"):
        assert run(["move", "matrix", line, n]) == 2
        assert "expected a positive integer" in capsys.readouterr().err


# ── corners ───────────────────────────────────────────────────────────────────


def test_corner_graph_stdout(tmp_path, capsys):
    assert run(["corner", write_graph(tmp_path, two_way_line()), "--roots", "v2"]) == 0
    assert capsys.readouterr().out == (
        "vertex v1\n"
        "vertex v3\n"
        "edge gamma_v1 v1 v1\n"
        "edge gamma_v3 v1 v3\n"
        "edge beta_v1 v3 v1\n"
        "edge beta_v3 v3 v3\n"
    )


def test_corner_emit_weights(tmp_path, capsys):
    code = run(["corner", write_graph(tmp_path, two_way_line()),
                "--roots", "v2", "--emit-weights"])
    assert code == 0
    assert capsys.readouterr().out == "gamma 0\ndelta 1\nalpha 1\nbeta 0\n"


def test_corner_family_pipes_into_verify(tmp_path, capsys):
    graph_file = write_graph(tmp_path, two_way_line())
    family_file = tmp_path / "family.txt"
    code = run(["corner", graph_file, "--roots", "v2",
                "--emit-family", "--output", str(family_file)])
    assert code == 0
    assert run(["verify", graph_file, str(family_file)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "ok true"


def test_verify_reports_failures_with_exit_1(tmp_path, capsys):
    graph_file = write_graph(tmp_path, two_way_line())
    family_file = tmp_path / "family.txt"
    run(["corner", graph_file, "--roots", "v2",
         "--emit-family", "--output", str(family_file)])
    capsys.readouterr()
    broken = family_file.read_text(encoding="utf-8").replace(
        "vertex v1 = delta ; delta", "vertex v1 = alpha ; alpha")
    family_file.write_text(broken, encoding="utf-8")
    assert run(["verify", graph_file, str(family_file)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ok false"
    assert any(line.startswith("fail ") for line in lines[1:])


# ── monoid ────────────────────────────────────────────────────────────────────


def test_monoid_equiv_found(tmp_path, capsys):
    assert run(["monoid", "equiv", write_graph(tmp_path, rose2()), "v:1", "v:2"]) == 0
    assert capsys.readouterr().out == "equivalent true\nsteps 1\n"


def test_monoid_equiv_exhausted(tmp_path, capsys):
    code = run(["monoid", "equiv", write_graph(tmp_path, single_loop()),
                "v:1", "v:2", "--steps", "6", "--size", "30"])
    assert code == 0
    assert capsys.readouterr().out == "equivalent unknown\nexhausted true\n"


def test_monoid_full_and_rebalance(tmp_path, capsys):
    graph_file = write_graph(tmp_path, looped_pair())
    assert run(["monoid", "full", graph_file, "v:1"]) == 0
    assert capsys.readouterr().out == "full true\n"
    assert run(["monoid", "full", graph_file, "w:1"]) == 0
    assert capsys.readouterr().out == "full false\n"
    assert run(["monoid", "rebalance", graph_file, "v:1"]) == 0
    assert capsys.readouterr().out == "result v:1 w:1\n"


# ── error handling and determinism ────────────────────────────────────────────


def test_usage_errors_exit_2(capsys):
    assert run(["move"]) == 2
    assert run(["analyze", "g.txt", "--no-such-flag"]) == 2
    capsys.readouterr()


def test_domain_errors_exit_1(tmp_path, capsys):
    assert run(["analyze", str(tmp_path / "missing.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert run(["move", "attach-head", write_graph(tmp_path, rose2()), "nope", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_zero_denominator_is_a_domain_error(tmp_path, capsys):
    family = tmp_path / "family.txt"
    family.write_text("vertex v = 3/0 * v\n", encoding="utf-8")
    assert run(["verify", write_graph(tmp_path, rose2()), str(family)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "'3/0'" in err


def test_consecutive_runs_share_no_state(tmp_path, capsys):
    from leavitt import cli

    graph_file = write_graph(tmp_path, rose2())
    calls = [
        ["analyze", graph_file, "--no-such-flag"],
        ["move", "attach-head", graph_file, "v", "2"],
        ["analyze", graph_file, "--unit-rank", "2"],
        ["analyze", graph_file],
    ]

    def fresh(argv):
        cli._build_parser.cache_clear()
        return run(argv), capsys.readouterr()

    expected = [fresh(argv) for argv in calls]
    cli._build_parser.cache_clear()
    consecutive = [(run(argv), capsys.readouterr()) for argv in calls]
    assert consecutive == expected
    assert [code for code, _ in consecutive] == [2, 0, 0, 0]
    assert "rank_k1(r=0) 0\n" in consecutive[3][1].out


def test_output_is_byte_deterministic(tmp_path, capsys):
    graph_file = write_graph(tmp_path, funnel_into_cycle())
    runs = []
    for _ in range(2):
        assert run(["analyze", graph_file]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    for _ in range(2):
        assert run(["corner", graph_file, "--roots", "4", "--emit-family"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[2] == runs[3]


def test_module_entry_point(tmp_path):
    graph_file = write_graph(tmp_path, rose2())
    proc = subprocess.run([sys.executable, "-m", "leavitt", "analyze", graph_file],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("rank_k0 0\n")


def test_console_script_if_installed(tmp_path):
    import shutil

    exe = shutil.which("leavitt")
    if exe is None:
        pytest.skip("console script not on PATH")
    graph_file = write_graph(tmp_path, rose2())
    proc = subprocess.run([exe, "analyze", graph_file], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("rank_k0 0\n")


# ── start-up cost ─────────────────────────────────────────────────────────────

# Runs one command in a fresh interpreter and prints, as its last line, the
# exit code and the modules that importing leavitt.cli and running it added.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import leavitt.cli
code = leavitt.cli.run(sys.argv[1:])
print(repr((code, sorted(set(sys.modules) - before))))
"""

# each command, and the leavitt modules it loads besides leavitt, leavitt.cli
# and leavitt.graph; only the symbolic algebra needs fractions
_IMPORT_BUDGET = [
    ("analyze {funnel}", {"ktheory"}),
    ("move expand-hereditary {funnel} 1,2,3", {"moves"}),
    ("move attach-head {funnel} 1 1", {"moves"}),
    ("move subdivide {funnel} a 1", {"moves"}),
    ("move attach-sources {funnel} 1 1", {"moves"}),
    ("move eliminate-source {funnel} 5", {"moves"}),
    ("move matrix {funnel} 2", {"moves"}),
    ("desourcify {funnel} --trace {trace}", {"moves"}),
    ("corner {line} --roots v2", {"corners"}),
    ("corner {line} --roots v2 --emit-weights", {"corners"}),
    ("corner {line} --roots v2 --emit-family", {"corners", "algebra"}),
    ("verify {line} {family}", {"algebra"}),
    ("monoid equiv {pair} v:1 v:2", {"monoid"}),
    ("monoid full {pair} v:1", {"monoid"}),
    ("monoid rebalance {pair} v:1", {"monoid"}),
]


@pytest.mark.parametrize(
    "command, extra", _IMPORT_BUDGET,
    ids=[" ".join(t for t in c.split() if "{" not in t) for c, _ in _IMPORT_BUDGET])
def test_each_command_imports_only_what_it_runs(tmp_path, command, extra):
    files = {
        "funnel": write_graph(tmp_path, funnel_into_cycle(), "funnel.txt"),
        "line": write_graph(tmp_path, two_way_line(), "line.txt"),
        "pair": write_graph(tmp_path, looped_pair(), "pair.txt"),
        "trace": str(tmp_path / "trace.txt"),
        "family": str(tmp_path / "family.txt"),
    }
    assert run(["corner", files["line"], "--roots", "v2", "--emit-family",
                "--output", files["family"]]) == 0
    argv = [token.format(**files) for token in command.split()]
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, new = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert "dataclasses" not in new and "inspect" not in new
    loaded = {m for m in new if m == "leavitt" or m.startswith("leavitt.")}
    assert loaded == {"leavitt", "leavitt.cli", "leavitt.graph"} | {f"leavitt.{m}" for m in extra}
    if "algebra" not in extra:
        assert "fractions" not in new
