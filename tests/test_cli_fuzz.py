"""Seeded fuzz of the command line through :func:`leavitt.cli.run`.

Random and adversarial graph, element, family and monoid inputs go through
every command with small sizes, small ``n`` and small ``--steps``.  Every
call must return an exit code in {0, 1, 2} without raising, and a second run
of the same command must print the same bytes.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

from conftest import random_graph, shaped_multigraph
from leavitt.algebra import format_family
from leavitt.cli import run
from leavitt.corners import build_forest, corner_family, t_corner
from leavitt.graph import Edge, Graph, parse_graph, serialize_graph

JUNK_LINES = (
    "vertex", "vertex v v", "edge e v", "edge e v q", "vertex bad-name", "vertex é",
    "# a comment", "", "\t", "verte v", "edge e v v extra", "vertex 0", "vertex v1",
    "edge x v1 v1", "edge x v1 v2",
)


def diamond_ladder(rungs: int) -> Graph:
    """Rungs of two parallel routes into a looped vertex: the entry paths
    double with each rung."""
    vs = [f"d{i}" for i in range(rungs + 1)]
    edges = [Edge("loop", vs[-1], vs[-1])]
    for i in range(rungs):
        edges += [Edge(f"u{i}", vs[i], vs[i + 1]), Edge(f"w{i}", vs[i], vs[i + 1])]
    return Graph(vs, edges)


def dotted_names() -> Graph:
    """Edge and vertex names that contain dots, so paths read more than one way."""
    return Graph(("a", "a.b", "b"), (
        Edge("e", "a", "b"), Edge("e.e", "a", "a"), Edge("f", "b", "a"),
        Edge("e.f", "b", "b"), Edge("f.e", "a.b", "a")))


def graph_text(rng: random.Random) -> str | bytes:
    kind = rng.randrange(7)
    if kind == 0:
        return serialize_graph(random_graph(rng, max_vertices=5, max_edges=9))
    if kind == 1:
        return serialize_graph(random_graph(rng, max_vertices=4, max_edges=7, no_sinks=True))
    if kind == 2:
        return serialize_graph(shaped_multigraph(rng))
    if kind == 3:
        return serialize_graph(diamond_ladder(rng.randint(1, 4)))
    if kind == 4:
        return serialize_graph(dotted_names())
    if kind == 5:  # a valid graph with junk spliced in
        lines = serialize_graph(random_graph(rng, max_vertices=3, max_edges=4)).splitlines()
        lines.insert(rng.randint(0, len(lines)), rng.choice(JUNK_LINES))
        return "\n".join(lines) + "\n"
    if rng.random() < 0.2:
        return b"vertex v\n\xff\xfe\n"  # not UTF-8
    return "\n".join(rng.choice(JUNK_LINES) for _ in range(rng.randint(0, 5)))


def element_text(rng: random.Random, names: list[str]) -> str:
    def path() -> str:
        return ".".join(rng.choice(names) for _ in range(rng.randint(1, 3)))

    terms = []
    for _ in range(rng.randint(0, 3)):
        term = path() if rng.random() < 0.7 else f"{path()} ; {path()}"
        coeff = rng.choice(["", "", "2 * ", "3/2 * ", "3/0 * ", "0 * ", "-"])
        terms.append(coeff + term)
    text = rng.choice([" + ", " - ", "+", "-", "++"]).join(terms)
    return rng.choice([text, text, "0", "", "q", text + "+"])


def family_text(rng: random.Random, names: list[str], vertices: list[str]) -> str:
    targets = vertices or ["x"]
    lines = []
    for v in targets[:3]:
        lines.append(f"vertex {v} = {element_text(rng, names)}")
    for i in range(rng.randint(0, 3)):
        src, dst = rng.choice(targets), rng.choice(targets)
        lines.append(f"edge t{i} {src} {dst} = {element_text(rng, names)}")
    if rng.random() < 0.2:
        lines.insert(rng.randint(0, len(lines)), rng.choice(["vertex x", "edge e = v", "= 1"]))
    return "".join(line + "\n" for line in lines)


def monoid_text(rng: random.Random, vertices: list[str]) -> str:
    pool = vertices * 3 + ["q"]
    tokens = [f"{rng.choice(pool)}:{rng.choice(['1', '1', '2', '3', '0', '-1', 'x', ''])}"
              for _ in range(rng.randint(1, 3))]
    return rng.choice([" ".join(tokens), " ".join(tokens), "0", "", "v"])


def commands(rng: random.Random, tmp, graph_txt) -> list[list[str]]:
    try:
        g = parse_graph(graph_txt if isinstance(graph_txt, str) else "")
        vertices, edges = list(g.vertices), [e.name for e in g.edges]
    except ValueError:
        g, vertices, edges = None, ["v", "v1"], ["e", "x"]
    names = vertices + edges + ["q"]
    graph, family = str(tmp / "g.txt"), str(tmp / "f.txt")
    out, trace = str(tmp / "out.txt"), str(tmp / "trace.txt")

    def pick(pool):
        return rng.choice(pool + ["q", "0", "v.h1"]) if pool else "q"

    def some(pool):
        return ",".join(rng.sample(pool, rng.randint(1, len(pool)))) if pool else "q"

    def small():
        return rng.choice(["1", "2", "3", "0", "-2", "x"])

    fam = family_text(rng, names, vertices)
    if g is not None and vertices and rng.random() < 0.3:  # a corner family, which should verify
        try:
            t = build_forest(g, [rng.choice(vertices)])
            fam = format_family(t_corner(g, t), corner_family(g, t))
        except ValueError:
            pass
    (tmp / "f.txt").write_text(fam, encoding="utf-8")
    return [
        ["analyze", graph, "--unit-rank", rng.choice(["0", "2", "inf", "-1", "x"])],
        ["move", "expand-hereditary", graph, some(vertices)],
        ["move", "attach-head", graph, pick(vertices), small()],
        ["move", "subdivide", graph, pick(edges), small(), "--output", out],
        ["move", "attach-sources", graph, pick(vertices), small()],
        ["move", "eliminate-source", graph, pick(vertices)],
        ["move", "matrix", graph, small()],
        ["desourcify", graph, "--trace", trace] + rng.choice([[], ["--output", out]]),
        ["corner", graph, "--roots", some(vertices)]
        + rng.choice([[], ["--emit-family"], ["--emit-weights"], ["--emit-family", "--emit-weights"]]),
        ["verify", graph, family],
        ["monoid", "equiv", graph, monoid_text(rng, vertices), monoid_text(rng, vertices),
         "--steps", rng.choice(["1", "2", "4"]), "--size", rng.choice(["2", "4", "6"])],
        ["monoid", "full", graph, monoid_text(rng, vertices)],
        ["monoid", "rebalance", graph, monoid_text(rng, vertices)],
        rng.choice([["analyze"], ["move"], ["bogus", graph], ["verify", graph],
                    ["analyze", str(tmp / "missing.txt")], ["monoid", "equiv", graph, "0"]]),
    ]


def run_once(argv, capsys, tmp) -> tuple:
    for name in ("out.txt", "trace.txt"):
        if (tmp / name).exists():
            (tmp / name).unlink()
    try:
        code = run(argv)
    except Exception as exc:
        raise AssertionError(f"an exception escaped {argv}") from exc
    captured = capsys.readouterr()
    files = tuple((tmp / name).read_text(encoding="utf-8") if (tmp / name).exists() else None
                  for name in ("out.txt", "trace.txt"))
    return code, captured.out, captured.err, files


def test_every_command_survives_seeded_random_inputs(tmp_path, capsys):
    rng = random.Random(20260)
    codes = {0: 0, 1: 0, 2: 0}
    succeeded = set()
    for case in range(300):
        text = graph_text(rng)
        (tmp_path / "g.txt").write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        for argv in commands(rng, tmp_path, text):
            first = run_once(argv, capsys, tmp_path)
            assert first[0] in codes, (case, argv, first)
            assert run_once(argv, capsys, tmp_path) == first, (case, argv)
            codes[first[0]] += 1
            if first[0] == 0:
                succeeded.add(" ".join(argv[:2]) if argv[0] in ("move", "monoid") else argv[0])
    # the inputs reach success, domain errors and usage errors, and every
    # command succeeds on some of them
    assert min(codes.values()) > 200, codes
    assert len(succeeded) == 13, sorted(succeeded)


def test_unknown_vertices_are_reported_the_same_under_any_string_hashing(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("vertex a\nvertex b\nedge e a b\nedge f b b\n", encoding="utf-8")
    argv = [sys.executable, "-m", "leavitt", "move", "expand-hereditary", str(graph),
            "xq,yq,zq,wq"]
    for seed in ("0", "1"):
        done = subprocess.run(argv, capture_output=True, text=True,
                              env={**os.environ, "PYTHONHASHSEED": seed})
        assert (done.returncode, done.stderr) == (1, "error: unknown vertex 'wq'\n"), seed
