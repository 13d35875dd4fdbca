"""End-to-end command-line tests driven through :func:`leavitt.cli.run`."""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import subprocess
import sys
import tracemalloc

import pytest

from conftest import (
    arrow,
    diamond_ladder,
    funnel_into_cycle,
    looped_pair,
    rose2,
    single_loop,
    triangle,
    two_way_line,
)
from leavitt.cli import run
from leavitt.graph import Edge, Graph, graph_hash, parse_graph, serialize_graph
from leavitt.corners import build_forest, t_corner
from leavitt.moves import (
    attach_head,
    attach_sources,
    desourcify,
    eliminate_source,
    expand_hereditary,
    matrix_graph,
    parse_trace,
    replay,
    subdivide_edge,
)


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


def test_analyze_prints_torsion_past_the_integer_string_limit(tmp_path, capsys):
    # a doubled n-cycle has K0 = Z/(2^n - 1); 2^15000 - 1 has 4,516 digits,
    # more than str() converts under the interpreter's default limit
    n = 15_000
    text = "".join(f"vertex v{i}\n" for i in range(n)) + "".join(
        f"edge e{i}{k} v{i} v{(i + 1) % n}\n" for i in range(n) for k in "ab")
    path = tmp_path / "doubled.txt"
    path.write_text(text, encoding="utf-8")
    assert run(["analyze", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rank_k0 0" and lines[2].startswith("torsion ")
    digits = lines[2].removeprefix("torsion ")
    assert len(digits) == 4516 and digits[0] != "0"
    value = 0
    for start in range(0, len(digits), 500):
        chunk = digits[start:start + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == 2**n - 1


def test_analyze_prints_rank_k1_past_the_integer_string_limit(tmp_path, capsys):
    # 12 isolated vertices and one loop: rank K0 = 13 and rank K1(C*) = 1, so
    # r = 10^4299 - 1 gives rank K1 = 1 + 13r = 13 * 10^4299 - 12, 4,301 digits
    text = "".join(f"vertex v{i}\n" for i in range(13)) + "edge e v12 v12\n"
    path = tmp_path / "sinks.txt"
    path.write_text(text, encoding="utf-8")
    r = "9" * 4299
    assert run(["analyze", str(path), "--unit-rank", r]) == 0
    assert capsys.readouterr().out == (
        "rank_k0 13\n"
        f"rank_k1(r={r}) 12{'9' * 4297}88\n"
        "torsion none\n"
        "singular 12\n"
        "is_ck false\n"
        "strongly_graded false\n"
        "criterion4 false\n"
        "criterion5 false\n"
    )


# 5,000 digits: past the interpreter's default 4,300-digit limit on int() of
# a string and str() of an int
LONG = 5000


def test_analyze_reads_a_unit_rank_past_the_integer_string_limit(tmp_path, capsys):
    # one loop: rank K0 = rank K1(C*) = 1, so r = 10^5000 - 1 gives rank K1 = 1 + r
    r = "9" * LONG
    assert run(["analyze", write_graph(tmp_path, single_loop()), "--unit-rank", r]) == 0
    assert capsys.readouterr().out == (
        "rank_k0 1\n"
        f"rank_k1(r={r}) 1{'0' * LONG}\n"
        "torsion none\n"
        "singular 0\n"
        "is_ck true\n"
        "strongly_graded true\n"
        "criterion4 true\n"
        "criterion5 true\n"
    )


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


def test_corner_names_the_least_unknown_root(tmp_path, capsys):
    assert run(["corner", write_graph(tmp_path, two_way_line()), "--roots", "zz,yy,xx,ww"]) == 1
    assert capsys.readouterr().err == "error: unknown vertex 'ww'\n"


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


def test_corner_family_naming_a_shared_token_is_refused_not_misread(tmp_path, capsys):
    # the vertex a and the edge a share a name, so the family text "a ; a"
    # (the path along edge a) could also read as the vertex a: verify used to
    # read the vertex and print "ok false" for a family that holds
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("vertex r\nvertex a\nvertex b\nedge a r a\nedge l a a\n"
                          "edge k a b\nedge j b a\nedge z r r\n", encoding="utf-8")
    family_file = tmp_path / "fam.txt"
    assert run(["corner", str(graph_file), "--roots", "r",
                "--emit-family", "--output", str(family_file)]) == 0
    assert "vertex r = r - a ; a\n" in family_file.read_text(encoding="utf-8")
    capsys.readouterr()
    assert run(["verify", str(graph_file), str(family_file)]) == 1
    assert capsys.readouterr() == ("", "error: ambiguous path 'a'\n")


def test_corner_family_with_an_image_written_0_verifies(tmp_path, capsys):
    # the image of the corner edge 0_r is the path along the edge 0, written
    # "0": verify used to read it as zero and print "ok false" with two failures
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("vertex r\nvertex s\nedge 0 r r\nedge a s r\nedge b s s\n",
                          encoding="utf-8")
    family_file = tmp_path / "fam.txt"
    assert run(["corner", str(graph_file), "--roots", "r",
                "--emit-family", "--output", str(family_file)]) == 0
    assert family_file.read_text(encoding="utf-8") == "vertex r = r\nedge 0_r r r = 0\n"
    capsys.readouterr()
    assert run(["verify", str(graph_file), str(family_file)]) == 0
    assert capsys.readouterr() == ("ok true\n", "")


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


def test_monoid_rebalance_keeps_a_multiplicity_past_the_integer_string_limit(tmp_path, capsys):
    k = "7" * LONG  # every vertex is covered already, so nothing is expanded
    assert run(["monoid", "rebalance", write_graph(tmp_path, single_loop()), f"v:{k}"]) == 0
    assert capsys.readouterr().out == f"result v:{k}\n"


def test_verify_reads_coefficients_past_the_integer_string_limit(tmp_path, capsys):
    n, m = "3" + "1" * (LONG - 1), "3" + "1" * (LONG - 2) + "0"  # n - m = 1
    family = tmp_path / "family.txt"
    family.write_text(f"vertex w = {n} * v - {m} * v\n", encoding="utf-8")
    assert run(["verify", write_graph(tmp_path, single_loop()), str(family)]) == 0
    assert capsys.readouterr().out == "ok true\n"


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


# every command with --output, with arguments on which it succeeds
_OUTPUT_COMMANDS = [
    "move expand-hereditary {funnel} 1,2,3", "move attach-head {funnel} 1 1",
    "move subdivide {funnel} a 1", "move attach-sources {funnel} 1 1",
    "move eliminate-source {funnel} 5", "move matrix {funnel} 2", "desourcify {funnel}",
    "corner {line} --roots v2", "corner {line} --roots v2 --emit-weights",
    "corner {line} --roots v2 --emit-family",
]


@pytest.mark.parametrize("command", _OUTPUT_COMMANDS + ["desourcify {funnel} --trace"],
                         ids=lambda c: " ".join(t for t in c.split() if "{" not in t))
def test_an_unwritable_output_path_is_one_error_line(tmp_path, capsys, command):
    files = {"funnel": write_graph(tmp_path, funnel_into_cycle(), "funnel.txt"),
             "line": write_graph(tmp_path, two_way_line(), "line.txt")}
    argv = [token.format(**files) for token in command.split()]
    if argv[-1] != "--trace":
        argv.append("--output")
    assert run(argv + [str(tmp_path / "out.txt")]) == 0  # the command itself succeeds
    capsys.readouterr()
    assert run(argv + [str(tmp_path)]) == 1  # a directory cannot be written as a file
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_every_leaf_takes_the_graph_first():
    # run parses args.graph for every leaf before it calls the handler
    from leavitt import cli

    leaves = {path: params for path, (_, handler, params) in cli._TABLE.items() if handler}
    assert len(leaves) == 13
    assert all(params[0][0] == "graph" for params in leaves.values())


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


def test_errors_do_not_depend_on_the_hash_seed(tmp_path):
    # each argv names several unknown vertices; a diagnostic that iterates a
    # set of them would name a different one under a different seed
    graph_file = write_graph(tmp_path, two_way_line())
    family_file = tmp_path / "family.txt"
    family_file.write_text("vertex ww = v1\nvertex zz = v2\n"
                           "edge e zz yy = gamma\nedge f xx ww = delta\n", encoding="utf-8")
    argvs = [
        ["corner", graph_file, "--roots", "zz,yy,xx,ww"],
        ["corner", graph_file, "--roots", "v2,yy,ww,xx,zz", "--emit-weights"],
        ["move", "expand-hereditary", graph_file, "zz,yy,xx,ww"],
        ["move", "eliminate-source", graph_file, "zz,yy,xx,ww"],
        ["monoid", "full", graph_file, "zz:1 yy:1 xx:1 ww:1"],
        ["monoid", "equiv", graph_file, "zz:1 yy:2", "xx:1 ww:1"],
        ["verify", graph_file, str(family_file)],
    ]
    for argv in argvs:
        procs = [subprocess.Popen([sys.executable, "-m", "leavitt", *argv],
                                  env={**os.environ, "PYTHONHASHSEED": str(seed)},
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                 for seed in (0, 1, 2)]
        results = [(*p.communicate(), p.returncode) for p in procs]
        assert results[0][2] == 1 and results[0][1].startswith("error: "), (argv, results[0])
        assert results[1:] == results[:1] * 2, argv


def test_console_script_if_installed(tmp_path):
    import shutil

    exe = shutil.which("leavitt")
    if exe is None:
        pytest.skip("console script not on PATH")
    graph_file = write_graph(tmp_path, rose2())
    proc = subprocess.run([exe, "analyze", graph_file], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("rank_k0 0\n")


# ── process exit ──────────────────────────────────────────────────────────────

# the environment of a child whose stdout is block-buffered, so that main's
# flush, not each write, is what writes a short output
def _buffered_env():
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _exit_files(tmp_path):
    family = tmp_path / "family.txt"
    family.write_text("vertex w = 2 * v1\n", encoding="utf-8")  # w is not idempotent
    return {"line": write_graph(tmp_path, two_way_line(), "line.txt"),
            "funnel": write_graph(tmp_path, funnel_into_cycle(), "funnel.txt"),
            "family": str(family), "out": str(tmp_path / "out.txt"),
            "trace": str(tmp_path / "trace.txt")}


# argvs and the exit codes they give
_EXIT_CASES = [
    ("analyze {line}", 0),
    ("move attach-head {line} nope 2", 1),  # an unknown vertex
    ("verify {line} {family}", 1),  # a relation fails
    ("analyze {line} --no-such-flag", 2),
    ("--help", 0),
    ("move matrix {line} 2 --output {out}", 0),
    ("desourcify {funnel} --trace {trace}", 0),
]


@pytest.mark.parametrize("command, code", _EXIT_CASES,
                         ids=[" ".join(t for t in c.split() if "{" not in t) for c, _ in _EXIT_CASES])
def test_the_fast_exit_changes_no_observable_result(tmp_path, capsys, monkeypatch, command, code):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width in both
    files = _exit_files(tmp_path)
    argv = [token.format(**files) for token in command.split()]

    def written():
        found = {}
        for name in ("out", "trace"):
            if os.path.exists(files[name]):
                with open(files[name], "rb") as fh:
                    found[name] = fh.read()
                os.remove(files[name])
        return found

    proc = subprocess.run([sys.executable, "-m", "leavitt", *argv], env=_buffered_env(),
                          capture_output=True, text=True)
    spawned = (proc.returncode, proc.stdout, proc.stderr, written())
    in_process = (run(argv), *capsys.readouterr(), written())
    assert spawned == in_process
    assert spawned[0] == code


_PARENT_EXIT = "import sys; from leavitt.cli import run; sys.exit(run(sys.argv[1:]))"


_BROKEN_PIPE = (1, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("command, expected", [
    ("analyze {line}", _BROKEN_PIPE),  # the 8 KB buffer holds the report until run flushes it
    ("move matrix {line} 400", _BROKEN_PIPE),  # the pipe is met while the graph is written
    ("--help", _BROKEN_PIPE),  # argparse's help waits in the buffer, as a report does
    ("move --help", _BROKEN_PIPE),
    ("monoid equiv --help", _BROKEN_PIPE),
    ("analyze", (2, "usage: leavitt analyze [-h] [--unit-rank UNIT_RANK] graph\n"
                    "leavitt analyze: error: the following arguments are required: graph\n")),
], ids=["small", "large", "help", "move-help", "monoid-equiv-help", "usage-error"])
def test_a_closed_pipe_reports_as_through_system_exit(tmp_path, command, expected):
    files = _exit_files(tmp_path)
    argv = [token.format(**files) for token in command.split()]
    results = []
    for entry in (["-m", "leavitt"], ["-c", _PARENT_EXIT]):
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child writes anything
        try:
            proc = subprocess.run([sys.executable, *entry, *argv], env=_buffered_env(),
                                  stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        results.append((proc.returncode, proc.stderr))
    # one report, the error line, with no second one from a flush at exit
    assert results == [expected] * 2


@pytest.mark.parametrize("command, code, err", [
    ("analyze {line}", 1, "error: stdout is closed\n"),
    ("move matrix {line} 2 --output {out}", 0, ""),
], ids=["stdout", "output"])
def test_a_closed_stdout_is_one_error_line(tmp_path, command, code, err):
    files = _exit_files(tmp_path)
    argv = [token.format(**files) for token in command.split()]
    proc = subprocess.run([sys.executable, "-m", "leavitt", *argv], env=_buffered_env(),
                          stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (code, err)
    if "--output" in argv:
        with open(files["out"], encoding="utf-8") as fh:
            assert fh.read() == serialize_graph(matrix_graph(two_way_line(), 2))


# Claims a hook, registers an atexit callback and runs main, which must leave
# through SystemExit while a hook is watching, so the callback runs; and end
# the process at once when none is.
_HOOKED_MAIN = """
import atexit, sys
import leavitt.cli
hook = sys.argv.pop(1)
if hook == "settrace":
    sys.settrace(lambda *args: None)
elif hook == "setprofile":
    sys.setprofile(lambda *args: None)
elif hook == "monitoring":
    sys.monitoring.use_tool_id(sys.monitoring.PROFILER_ID, "probe")
atexit.register(print, "atexit ran")
leavitt.cli.main()
"""


@pytest.mark.parametrize("hook", ["settrace", "setprofile", "monitoring", "none"])
def test_a_watching_hook_gets_the_exit_it_expects(tmp_path, hook):
    if hook == "monitoring" and not hasattr(sys, "monitoring"):
        pytest.skip("sys.monitoring is new in Python 3.12")
    files = _exit_files(tmp_path)
    proc = subprocess.run([sys.executable, "-c", _HOOKED_MAIN, hook, "verify", files["line"],
                           files["family"]], env=_buffered_env(), capture_output=True, text=True)
    report = "ok false\nfail orthogonal idempotents: w,w\n"
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == report + ("" if hook == "none" else "atexit ran\n")


def test_cprofile_prints_its_table(tmp_path):
    # cProfile sets a profile hook up to Python 3.11 and claims a sys.monitoring
    # tool id from 3.12, where sys.getprofile() reads None
    graph_file = write_graph(tmp_path, rose2())
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "leavitt", "analyze", graph_file],
                          env=_buffered_env(), capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("rank_k0 0\n") and "function calls" in proc.stdout


# ── parser structure ──────────────────────────────────────────────────────────

# Each command path's help (as listed by its parent), description, and
# actions after -h: (option strings, dest, type name, default, required,
# help).  Read from the argparse objects, not from formatted --help text,
# whose wording varies between Python versions.
_HELP = (("-h", "--help"), "help", None, "==SUPPRESS==", False, "show this help message and exit")
_GRAPH = ((), "graph", None, None, True, None)
_VERTEX = ((), "vertex", None, None, True, None)
_N = ((), "n", "_positive_int", None, True, None)
_OUTPUT = (("--output",), "output", None, None, False, None)
_ELEMENT = ((), "element", None, None, True, None)

_PARSER_PIN = {
    "": (None, "Graph moves, corners, K-theory and monoid tools for Leavitt path algebras.", (
        ((), "command", None, None, True, None),)),
    "analyze": ("K-theory ranks and classification verdicts", None, (
        _GRAPH,
        (("--unit-rank",), "unit_rank", "_unit_rank", 0, False,
         "rank of the coefficient field's unit group (nonnegative integer or 'inf'; default 0)"))),
    "move": ("apply one graph move that keeps the algebra up to Morita equivalence", None, (
        ((), "move", None, None, True, None),)),
    "move expand-hereditary": (
        "replace the complement of a hereditary set by path vertices", None, (
        _GRAPH,
        ((), "vertices", "_vertex_list", None, True, "comma-separated hereditary vertex set"),
        _OUTPUT)),
    "move attach-head": ("attach a head of length n", None, (_GRAPH, _VERTEX, _N, _OUTPUT)),
    "move subdivide": ("subdivide an edge into n+1 pieces", None, (
        _GRAPH, ((), "edge", None, None, True, None), _N, _OUTPUT)),
    "move attach-sources": ("attach n new sources aimed at a vertex", None, (
        _GRAPH, _VERTEX, _N, _OUTPUT)),
    "move eliminate-source": ("remove a source and its edges", None, (_GRAPH, _VERTEX, _OUTPUT)),
    "move matrix": ("the n x n matrix form: a head of length n-1 at every vertex", None, (
        _GRAPH, _N, _OUTPUT)),
    "desourcify": ("eliminate all sources, then repair the head degrees by subdivision", None, (
        _GRAPH, (("--trace",), "trace", None, None, False, "write the move trace to this file"),
        _OUTPUT)),
    "corner": ("corner graph cut out by a directed forest", None, (
        _GRAPH,
        (("--roots",), "roots", "_vertex_list", None, True, "comma-separated root vertices"),
        (("--emit-family",), "emit_family", None, False, False,
         "print the corner generators' images instead"),
        (("--emit-weights",), "emit_weights", None, False, False,
         "print the grading weights instead"),
        _OUTPUT)),
    "verify": ("check a generator family against the defining relations", None, (
        ((), "graph", None, None, True, "host graph the images live in"),
        ((), "family", None, None, True, "family file (vertex/edge lines with elements)"))),
    "monoid": ("graph monoid computations", None, (((), "monoid", None, None, True, None),)),
    "monoid equiv": ("bounded search for a relation chain", None, (
        _GRAPH, ((), "a", None, None, True, None), ((), "b", None, None, True, None),
        (("--steps",), "steps", "_positive_int", 8, False, "total step bound (default 8)"),
        (("--size",), "size", "_positive_int", 64, False,
         "total multiplicity bound (default 64)"))),
    "monoid full": ("is the element's closure everything?", None, (_GRAPH, _ELEMENT)),
    "monoid rebalance": ("expand a full element until every vertex is covered", None, (
        _GRAPH, _ELEMENT)),
}


def _parser_structure(parser, path=(), help=None):
    actions = tuple((tuple(a.option_strings), a.dest, getattr(a.type, "__name__", None),
                     a.default, a.required, a.help) for a in parser._actions)
    yield " ".join(path), (help, parser.description, actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {choice.dest: choice.help for choice in action._choices_actions}
            for name, child in action.choices.items():
                yield from _parser_structure(child, path + (name,), helps[name])


def test_parser_structure_is_pinned():
    from leavitt import cli

    got = dict(_parser_structure(cli._build_parser()))
    assert list(got) == list(_PARSER_PIN)
    for path, (help, description, actions) in _PARSER_PIN.items():
        assert got[path] == (help, description, (_HELP,) + actions), path


# every command path, as the installed script's --help loop lists them
_COMMAND_PATHS = [
    [], ["analyze"], ["move"], ["move", "expand-hereditary"], ["move", "attach-head"],
    ["move", "subdivide"], ["move", "attach-sources"], ["move", "eliminate-source"],
    ["move", "matrix"], ["desourcify"], ["corner"], ["verify"], ["monoid"],
    ["monoid", "equiv"], ["monoid", "full"], ["monoid", "rebalance"],
]
_PARSE_CASES = [path + tail for path in _COMMAND_PATHS for tail in ([], ["--help"], ["g"])] + [
    ["nope"], ["move", "nope"], ["monoid", "nope"], ["-h", "analyze"], ["--help", "move"],
    ["move", "-h", "matrix"], ["analyze", "g", "--bogus"], ["analyze", "g", "extra"],
    ["analyze", "g", "--unit", "inf"], ["analyze", "g", "--unit-rank", "x"],
    ["move", "attach-head", "g", "v", "0"], ["move", "attach-head", "g", "v", "2"],
    ["move", "expand-hereditary", "g", "a,b", "--output", "o"], ["move", "matrix", "g", "2", "x"],
    ["desourcify", "g", "--trace"], ["desourcify", "g", "--trace", "t", "--output", "o"],
    ["corner", "g", "--roots", "v", "--emit-family", "--emit-weights"],
    ["corner", "g", "--roots", "v,w", "--emit-weights"], ["verify", "g", "f"],
    ["monoid", "equiv", "g", "v:1", "v:2", "--steps", "x"],
    ["monoid", "equiv", "g", "v:1", "v:2", "--size", "3"], ["monoid", "full", "g", "v:1"],
    ["monoid", "rebalance", "g", "v:1", "w:1"],
]


def test_command_table_lists_the_whole_tree():
    # _build_parser and _command_path read cli._TABLE; the whole tree is pinned above
    from leavitt import cli

    table = [list(path) for path in cli._TABLE]
    assert table == _COMMAND_PATHS
    assert [" ".join(path) for path in table] == list(dict(_parser_structure(cli._build_parser())))
    # exactly the paths with leaves carry no handler
    parents = {path[:-1] for path in cli._TABLE if path}
    assert {path for path, (_, handler, _) in cli._TABLE.items() if handler is None} == parents


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=" ".join)
def test_branch_parser_parses_as_the_whole_tree(argv, capsys):
    # run builds only the branch that argv names; its exit code, stdout,
    # stderr and parsed arguments must be the whole tree's
    from leavitt import cli

    def parse(path):
        try:
            args = vars(cli._build_parser(path).parse_args(argv))
        except SystemExit as stop:
            return stop.code, capsys.readouterr()
        handler = args.pop("run")
        return (args, getattr(handler, "func", handler), getattr(handler, "args", ())), \
            capsys.readouterr()

    path = cli._command_path(argv)
    assert parse(path) == parse(())
    if path:
        top = cli._build_parser(path)._subparsers._group_actions[0]
        assert list(top.choices) == [path[0]]


# ── streamed graph text ───────────────────────────────────────────────────────

_LOOP = Graph(["v"], [Edge("l", "v", "v")])


def _star(n: int) -> Graph:
    """n sources, each with one edge into a looped vertex c."""
    return Graph(["c", *(f"s{i}" for i in range(n))],
                 [Edge("l", "c", "c"), *(Edge(f"e{i}", f"s{i}", "c") for i in range(n))])


def _chain(n: int) -> Graph:
    """Sources s0 -> s1 -> ... -> s<n-1> -> c, with a loop at c."""
    chain = [*(f"s{i}" for i in range(n)), "c"]
    return Graph(chain, [*(Edge(f"a{i}", u, w) for i, (u, w) in enumerate(zip(chain, chain[1:]))),
                         Edge("lp", "c", "c")])


def _fan(n: int) -> Graph:
    """A looped root r with an edge to each of n looped leaves."""
    leaves = [f"v{i}" for i in range(n)]
    return Graph(["r", *leaves], [Edge("l", "r", "r"),
                                  *(Edge(f"e{i}", "r", v) for i, v in enumerate(leaves)),
                                  *(Edge(f"m{i}", v, v) for i, v in enumerate(leaves))])


# each graph-producing command, its input, the library's result and the lines
# it prints; the text goes out in pieces of at most 512 lines, vertices first
_STREAMED = [
    ("move eliminate-source {g} u", Graph(["u", "v"], [Edge("e", "u", "v")]),
     lambda g: eliminate_source(g, "u"), 1),
    ("move attach-head {g} v 255", Graph(["v"]), lambda g: attach_head(g, "v", 255), 511),
    ("move attach-head {g} v 256", Graph(["v"]), lambda g: attach_head(g, "v", 256), 513),
    ("move attach-head {g} v 512", Graph(["v"]), lambda g: attach_head(g, "v", 512), 1025),
    ("move attach-sources {g} v 255", _LOOP, lambda g: attach_sources(g, "v", 255), 512),
    ("move matrix {g} 256", _LOOP, lambda g: matrix_graph(g, 256), 512),
    ("move subdivide {g} l 511", _LOOP, lambda g: subdivide_edge(g, "l", 511), 1024),
    ("move expand-hereditary {g} c", _star(511), lambda g: expand_hereditary(g, ["c"]), 1024),
    ("desourcify {g}", _chain(256), lambda g: desourcify(g)[0], 514),
    ("corner {g} --roots r", _fan(170), lambda g: t_corner(g, build_forest(g, ["r"])), 512),
]


@pytest.mark.parametrize("command, g, result, lines", _STREAMED,
                         ids=[f"{c.split(' {g}')[0]}-{n}" for c, _, _, n in _STREAMED])
def test_streamed_graph_text_is_byte_identical(tmp_path, capsys, command, g, result, lines):
    expected = serialize_graph(result(g))
    assert expected.count("\n") == lines
    argv = command.format(g=write_graph(tmp_path, g)).split()
    assert run(argv) == 0
    assert capsys.readouterr() == (expected, "")
    out = tmp_path / "out.txt"
    assert run(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == expected.encode("utf-8")


def test_streamed_cases_cover_the_piece_boundaries():
    assert {1, 511, 512, 513, 1025} <= {lines for *_, lines in _STREAMED}
    assert any(not result(g).edges for _, g, result, _ in _STREAMED)


class _Discard(io.TextIOBase):
    """A stdout that keeps only the length of what it is given."""

    written = 0

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_printing_a_graph_holds_about_one_piece_of_its_text(tmp_path):
    # 8,188 entry paths, about 1.6 MB of text: the command's peak may exceed
    # the move's own by far less than the text, which it never holds whole
    g = diamond_ladder(11)
    argv = ["move", "expand-hereditary", write_graph(tmp_path, g), "x11"]
    with contextlib.redirect_stdout(_Discard()):
        assert run(argv) == 0  # imports the move and builds the parser, outside the peak
    text = len(serialize_graph(expand_hereditary(g, ["x11"])))
    alone = _traced_peak(lambda: expand_hereditary(diamond_ladder(11), ["x11"]))
    sink = _Discard()
    with contextlib.redirect_stdout(sink):
        printed = _traced_peak(lambda: run(argv))
    assert sink.written == text > 1_500_000
    assert printed - alone < text / 4, (printed - alone, text)


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
