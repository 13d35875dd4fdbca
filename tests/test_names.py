"""Generated names: every builder mints its new names through one helper.

A joined name that is free is kept; one that a name of the same kind
carried over, or minted earlier in the same build, already has becomes the
least free ``<name>_<k>``.  The references below are the joined naming
before minting, which refused such graphs with ``duplicate``: wherever they
build a graph, the builders must build it byte for byte, and nowhere may a
builder refuse with ``duplicate``.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

from conftest import pool_graph
from leavitt.algebra import verify_ck_family
from leavitt.cli import run
from leavitt.corners import build_forest, corner_family, t_corner
from leavitt.graph import (
    Edge,
    Graph,
    _minted,
    classify,
    graph_hash,
    hereditary_closure,
    parse_graph,
    serialize_graph,
)
from leavitt.moves import (
    MoveRecord,
    MoveTrace,
    attach_head,
    attach_sources,
    desourcify,
    eliminate_source,
    entry_paths,
    expand_hereditary,
    expansion_family,
    matrix_graph,
    parse_trace,
    replay,
    serialize_trace,
    subdivide_edge,
    subdivision_family,
)

# ── the joined naming, kept as the reference ──────────────────────────────────


def joined_heads(g: Graph, heads) -> Graph:
    vertices, edges, known = list(g.vertices), list(g.edges), set(g.vertices)
    for v, n in heads:
        if v not in known:
            raise ValueError(f"unknown vertex {v!r}")
        new = [f"{v}.h{i}" for i in range(1, n + 1)]
        known.update(new)
        vertices += new
        edges += [Edge(f"{v}.e{i}", f"{v}.h{i}", f"{v}.h{i - 1}" if i > 1 else v)
                  for i in range(1, n + 1)]
    return Graph(vertices, edges)


def joined_subdivided(g: Graph, chains) -> Graph:
    vertices, edges = list(g.vertices), {e.name: e for e in g.edges}
    for e0, n in chains:
        e = edges.pop(e0, None)
        if e is None:
            raise ValueError(f"unknown edge {e0!r}")
        vertices += [f"{e0}.v{i}" for i in range(1, n + 1)]
        chain = [Edge(f"{e0}.e1", f"{e0}.v1", e.dst)]
        chain += [Edge(f"{e0}.e{i}", f"{e0}.v{i}", f"{e0}.v{i - 1}") for i in range(2, n + 1)]
        chain.append(Edge(f"{e0}.e{n + 1}", e.src, f"{e0}.v{n}"))
        for x in chain:
            if edges.setdefault(x.name, x) is not x:
                raise ValueError(f"duplicate edge {x.name!r}")
    return Graph(vertices, edges.values())


def joined_sources(g: Graph, v: str, n: int) -> Graph:
    g.require_vertex(v)
    return Graph(g.vertices + tuple(f"{v}.s{i}" for i in range(1, n + 1)),
                 g.edges + tuple(Edge(f"{v}.f{i}", f"{v}.s{i}", v) for i in range(1, n + 1)))


def joined_expansion(g: Graph, hs) -> Graph:
    h = frozenset(hs)
    paths = entry_paths(g, h)
    return Graph([v for v in g.vertices if v in h] + [p.label for p in paths],
                 [e for e in g.edges if e.src in h]
                 + [Edge(f"ov_{p.label}", p.label, p.target) for p in paths])


def joined_matrix(g: Graph, n: int) -> Graph:
    return joined_heads(g, [(v, n - 1) for v in g.vertices]) if n > 1 else g


def joined_corner(g: Graph, roots) -> Graph:
    t = build_forest(g, roots)
    kept, corner = t._corner
    return Graph(kept, [Edge(f"{e.name}_{x.dst}", e.src, x.dst) for e, xs in corner for x in xs])


def joined_desourcify(g: Graph) -> tuple[Graph, MoveTrace]:
    """The pipeline of ``desourcify``, peeling one least-named source at a
    time, on the joined naming."""
    profile = classify(g)
    if profile.sinks:
        raise ValueError("desourcify requires a graph with no sinks")
    if not profile.sources:
        return g, MoveTrace(())
    peel, core = [], g
    while classify(core).sources:
        peel.append(classify(core).sources[0])
        core = eliminate_source(core, peel[-1])
    expanded = joined_expansion(g, core.vertices)
    aimed: dict[str, list[str]] = {}
    for p in entry_paths(g, core.vertices):
        aimed.setdefault(p.target, []).append(p.label)
    heads = [(v, len(aimed[v])) for v in sorted(aimed)]
    chains = [(min(e.name for e in core.in_edges(v)), n) for v, n in heads]
    out = joined_subdivided(core, chains)
    g_hash, core_hash, expanded_hash = graph_hash(g), graph_hash(core), graph_hash(expanded)
    return out, MoveTrace((
        MoveRecord("EliminateSources", (",".join(peel),), g_hash, core_hash),
        MoveRecord("ExpandHereditary", (",".join(sorted(core.vertices)),), g_hash, expanded_hash),
        MoveRecord("EliminateSources", (",".join(s for v, _ in heads for s in aimed[v]),),
                   expanded_hash, core_hash),
        MoveRecord("AttachHeads", (",".join(f"{v}:{n}" for v, n in heads),), core_hash,
                   graph_hash(joined_heads(core, heads))),
        MoveRecord("SubdivideEdges", (",".join(f"{e}:{n}" for e, n in chains),), core_hash,
                   graph_hash(out)),
    ))


# ── the helper ────────────────────────────────────────────────────────────────


def test_minted_keeps_free_names_and_suffixes_taken_ones():
    taken = {"a", "a_1", "b"}
    assert _minted(taken, ["c", "a", "a", "b_1", "b"]) == ["c", "a_2", "a_3", "b_1", "b_2"]
    assert taken == {"a", "a_1", "a_2", "a_3", "b", "b_1", "b_2", "c"}
    assert _minted(taken, []) == []
    fresh: set[str] = set()
    assert _minted(fresh, ["x", "y"]) == ["x", "y"] and fresh == {"x", "y"}
    # a joined name may equal a variant minted before it in the same build
    assert _minted({"x"}, ["x", "x_1"]) == ["x_1", "x_1_1"]


# ── the inputs the joined naming refused ──────────────────────────────────────

_REFUSED = {  # graph text, and the commands that exited 1 on it with duplicate …
    "vertex v\nvertex v.h1\nedge l v v\nedge k v.h1 v\n": [
        ["move", "attach-head", "v", "1"], ["move", "matrix", "2"]],
    "vertex a.v1\nvertex b\nedge a b b\nedge c a.v1 b\n": [["move", "subdivide", "a", "1"]],
    "vertex v\nvertex v.s1\nedge l v v\nedge v.f1 v.s1 v\n": [
        ["move", "attach-sources", "v", "1"]],
    "vertex u\nvertex w\nedge a u w\nedge ov_a w w\n": [["move", "expand-hereditary", "w"]],
    # desourcify's entry path a names a new vertex a, which the core keeps
    "vertex s\nvertex a\nedge a s a\nedge l a a\n": [["desourcify", "--trace", "trace.txt"]],
    # x into y_z and x_y into z both join to the corner edge x_y_z
    "vertex r\nvertex y_z\nvertex z\nedge t1 r y_z\nedge t2 r z\nedge x r y_z\n"
    "edge x_y r z\nedge ly y_z y_z\nedge lz z z\n": [["corner", "--roots", "r"]],
}


def test_inputs_the_joined_naming_refused_build_and_their_families_verify(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for text, commands in _REFUSED.items():
        Path("g.txt").write_text(text, encoding="utf-8")
        g = parse_graph(text)
        for command in commands:
            k = 2 if command[0] == "move" else 1
            argv = command[:k] + ["g.txt"] + command[k:]
            assert run(argv) == 0, argv
            out = capsys.readouterr().out
            parse_graph(out)  # the checked constructor accepts what was printed
            if argv[0] == "desourcify":
                trace = parse_trace(Path("trace.txt").read_text(encoding="utf-8"))
                assert serialize_graph(replay(trace, g)) == out
            if argv[0] == "corner":
                assert run(argv + ["--emit-family", "--output", "f.txt"]) == 0
                assert run(["verify", "g.txt", "f.txt"]) == 0
                assert capsys.readouterr().out == "ok true\n"
    g = parse_graph("vertex u\nvertex w\nedge a u w\nedge ov_a w w\n")
    assert verify_ck_family(expand_hereditary(g, ["w"]), expansion_family(g, ["w"]), g).ok
    g = parse_graph("vertex a.v1\nvertex b\nedge a b b\nedge c a.v1 b\n")
    assert verify_ck_family(attach_head(g, "b", 1), subdivision_family(g, "a", 1),
                            subdivide_edge(g, "a", 1)).ok


# ── the differential test ─────────────────────────────────────────────────────


def outcome(build, *args) -> str:
    try:
        return serialize_graph(build(*args))
    except ValueError as err:
        return f"error: {err}"


def compare(counts: Counter, name: str, got: str, want: str) -> None:
    """``got`` is ``want`` wherever the joined naming builds a graph or
    refuses for a reason other than a clash; where it refuses with
    ``duplicate``, the builder builds a graph.  A batch differs from the
    joined naming only where that refuses: after a clash, a later entry may
    name a variant that the joined naming never made, or name what the batch
    no longer has, which the joined naming refused for the clash first."""
    assert "duplicate" not in got, (name, got)
    if name in _BATCHES and got != want:
        assert want.startswith("error: "), (name, want, got)
        counts[name, "clashed"] += 1
    elif "duplicate" in want:
        assert not got.startswith("error: "), (name, want, got)
        counts[name, "clashed"] += 1
    else:
        assert got == want, (name, want, got)
        counts[name, "same"] += 1


_BATCHES = ("AttachHeads", "SubdivideEdges")


def batch_outcome(kind: str, move, g: Graph, entries) -> str:
    """A batch record's replay, checked against its single moves in turn."""
    want = g
    try:
        for name, n in entries:
            want = move(want, name, n)
    except ValueError as err:
        want = err
    params = ",".join(f"{name}:{n}" for name, n in entries)
    out_hash = graph_hash(want) if isinstance(want, Graph) else "0" * 16
    trace = parse_trace(f"move {kind} {params} {graph_hash(g)} {out_hash}\n")
    if isinstance(want, Graph):
        return serialize_graph(replay(trace, g))
    with pytest.raises(ValueError) as info:
        replay(trace, g)
    assert str(info.value) == f"record 0: {want}", (kind, params)
    return f"error: {want}"


def test_builders_match_the_joined_naming_and_never_refuse_a_clash():
    rng = random.Random(3627)
    counts: Counter = Counter()
    verified_graphs = replayed = 0
    for case in range(2000):
        g = pool_graph(rng)
        vs, es = list(g.vertices), [e.name for e in g.edges]
        v, n = rng.choice(vs), rng.randint(1, 3)
        hs = hereditary_closure(g, [v])
        e0 = rng.choice(es) if es else None
        roots = rng.sample(vs, rng.randint(1, len(vs) - 1)) if len(vs) > 1 else None
        for name, build, reference, args in (
            ("attach_head", attach_head, lambda g, v, n: joined_heads(g, [(v, n)]), (g, v, n)),
            ("attach_sources", attach_sources, joined_sources, (g, v, n)),
            # no pool name ends in .s1 or .f1, so the second call clashes with the first
            ("attach_sources", lambda g, v, n: attach_sources(attach_sources(g, v, 1), v, n),
             lambda g, v, n: joined_sources(joined_sources(g, v, 1), v, n), (g, v, n)),
            ("matrix_graph", matrix_graph, joined_matrix, (g, n)),
            ("eliminate_source", eliminate_source, eliminate_source, (g, v)),
            ("expand_hereditary", expand_hereditary, joined_expansion, (g, hs)),
            ("subdivide_edge", subdivide_edge, lambda g, e, n: joined_subdivided(g, [(e, n)]),
             (g, e0, n)),
            ("t_corner", lambda g, r: t_corner(g, build_forest(g, r)), joined_corner, (g, roots)),
        ):
            if None not in args:
                compare(counts, name, outcome(build, *args), outcome(reference, *args))
        # batches, whose later entries may name what the earlier ones minted
        made = [x.src for x in attach_head(g, v, 1).edges[len(g.edges):]]
        heads = [(v, 1)] + [(rng.choice(vs + made), rng.randint(1, 2)) for _ in range(2)]
        compare(counts, "AttachHeads", batch_outcome("AttachHeads", attach_head, g, heads),
                outcome(joined_heads, g, heads))
        if es:
            made = [x.name for x in subdivide_edge(g, e0, 1).edges[len(es) - 1:]]
            chains = [(e0, 1)] + [(rng.choice(es + made), rng.randint(1, 2)) for _ in range(2)]
            compare(counts, "SubdivideEdges",
                    batch_outcome("SubdivideEdges", subdivide_edge, g, chains),
                    outcome(joined_subdivided, g, chains))
        # desourcify's output and trace, and the trace replays to its output
        try:
            want = joined_desourcify(g)
        except ValueError as err:
            want = err
        try:
            out, trace = desourcify(g)
        except ValueError as err:
            compare(counts, "desourcify", f"error: {err}", f"error: {want}")
        else:
            compare(counts, "desourcify", serialize_graph(out) + serialize_trace(trace),
                    f"error: {want}" if isinstance(want, ValueError)
                    else serialize_graph(want[0]) + serialize_trace(want[1]))
            assert replay(parse_trace(serialize_trace(trace)), g) == out, case
            replayed += bool(trace.records)
        # the families name what their builders minted, so they verify
        if case % 4 == 0:
            verified = 0
            if not outcome(expand_hereditary, g, hs).startswith("error: "):
                expanded = expand_hereditary(g, hs)
                assert verify_ck_family(expanded, expansion_family(g, hs), g).ok, case
                verified += 1
            if es:
                target = attach_head(g, g.edge(e0).dst, n)
                host = subdivide_edge(g, e0, n)
                assert verify_ck_family(target, subdivision_family(g, e0, n), host).ok, case
                verified += 1
            if roots:
                t = build_forest(g, roots)
                assert verify_ck_family(t_corner(g, t), corner_family(g, t), g).ok, case
                verified += 1
            verified_graphs += verified > 0
    # every builder that mints met clashes, and built the joined graph elsewhere
    minting = ("attach_head", "attach_sources", "matrix_graph", "expand_hereditary",
               "subdivide_edge", "t_corner", "AttachHeads", "SubdivideEdges", "desourcify")
    assert all(counts[name, "clashed"] and counts[name, "same"] >= 300 for name in minting), counts
    assert sum(counts[name, "clashed"] for name in minting) > 3000, counts
    assert replayed > 300 and verified_graphs > 200, (replayed, verified_graphs)
