"""Graph moves: hereditary expansion, heads, subdivision, sources, traces.

Structural expectations are frozen from hand application of the definitions;
invariance claims (same K-theory data across Morita-preserving moves) are
cross-checked through the independent K-theory module.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leavitt.moves
from conftest import (
    arrow,
    funnel_into_cycle,
    graphs,
    k0_data,
    random_graph,
    shaped_multigraph,
    single_loop,
    triangle,
    two_way_line,
)
from leavitt.cli import run
from leavitt.graph import (
    Edge,
    Graph,
    PathSeq,
    classify,
    graph_hash,
    hereditary_closure,
    parse_graph,
    serialize_graph,
)
from leavitt.ktheory import k_summary
from leavitt.moves import (
    MoveRecord,
    MoveTrace,
    _peel,
    attach_head,
    attach_sources,
    desourcify,
    eliminate_source,
    entry_paths,
    expand_hereditary,
    matrix_graph,
    parse_trace,
    replay,
    serialize_trace,
    subdivide_edge,
)


# ── hereditary expansion ──────────────────────────────────────────────────────


def test_entry_paths_funnel():
    pairs = entry_paths(funnel_into_cycle(), ["1", "2", "3"])
    assert [label for label, _ in pairs] == ["f1", "f2", "g1.f1", "g1.f2"]
    assert all(label == p.label() for label, p in pairs)


def test_entry_labels_that_collide_are_rejected():
    # the path a.b and the edge a.b both enter {h} with the label "a.b"
    g = Graph(("x", "y", "h"), (Edge("a", "x", "y"), Edge("b", "y", "h"),
                                Edge("a.b", "x", "h"), Edge("l", "h", "h")))
    assert [label for label, _ in entry_paths(g, ["h"])] == ["a.b", "a.b", "b"]
    with pytest.raises(ValueError, match="duplicate vertex 'a.b'"):
        expand_hereditary(g, ["h"])


def test_expansion_family_rejects_colliding_entry_labels():
    # the family of the graph above would map the vertex a.b twice, one
    # image overwriting the other
    g = Graph(("x", "y", "h"), (Edge("a", "x", "y"), Edge("b", "y", "h"),
                                Edge("a.b", "x", "h"), Edge("l", "h", "h")))
    with pytest.raises(ValueError, match="duplicate vertex 'a.b'"):
        leavitt.moves.expansion_family(g, ["h"])


def test_expand_joins_each_entry_label_once(monkeypatch):
    # the walk that finds a path grows its label one edge at a time, so
    # neither caller joins a path's edge names again
    g, hs = funnel_into_cycle(), ["1", "2", "3"]
    pairs = entry_paths(g, hs)
    assert all(label == p.label() for label, p in pairs)
    joined = []
    real_label = PathSeq.label
    monkeypatch.setattr(PathSeq, "label", lambda p: joined.append(p) or real_label(p))
    expand_hereditary(g, hs)
    leavitt.moves.expansion_family(g, hs)
    assert joined == []


def feeder_into_core(rng: random.Random) -> tuple[Graph, tuple[str, ...]]:
    """An acyclic random feeder, some of its edges with dotted names, hanging
    into a core in which every vertex is looped.  Some graphs also get the
    paths ``a b`` and ``a.b`` into the core, or ``p q r`` and ``p.q r``, whose
    labels collide."""
    core = tuple(f"c{i}" for i in range(rng.randint(1, 3)))
    feed = tuple(f"f{i}" for i in range(rng.randint(1, 6)))
    ends = []
    for v in core:
        ends.append((v, v))
        ends.append((v, rng.choice(core)))
    for i, v in enumerate(feed):
        later = feed[i + 1:] + core
        # the last feeder vertex has only the core later, so every one reaches it
        ends += [(v, rng.choice(later)) for _ in range(rng.randint(1, 3))]
    names = ["c", "b.c", "a.b.c", "c.a"]
    rng.shuffle(names)
    edges = [Edge(names.pop() if names and rng.random() < 0.5 else f"e{k}", src, dst)
             for k, (src, dst) in enumerate(ends)]
    if len(feed) > 1 and rng.random() < 0.5:
        u, w = sorted(rng.sample(feed, 2))
        c = rng.choice(core)
        edges += [Edge("a", u, w), Edge("b", w, c), Edge("a.b", u, c)]
    if len(feed) > 2 and rng.random() < 0.5:
        # p q r and p.q r collide on one boundary edge r
        u, x, w = sorted(rng.sample(feed, 3))
        edges += [Edge("p", u, x), Edge("q", x, w), Edge("p.q", u, w),
                  Edge("r", w, rng.choice(core))]
    vertices = list(core + feed)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return Graph(tuple(vertices), tuple(edges)), core


def test_entry_paths_match_forward_enumeration():
    rng = random.Random(53)
    collided = 0
    for _ in range(250):
        g, core = feeder_into_core(rng)
        # forward from each outside vertex, stopping at the edge that enters the core
        want = []
        stack = [(v, ()) for v in g.vertices if v not in core]
        while stack:
            at, names = stack.pop()
            for e in g.out_edges(at):
                if e.dst in core:
                    want.append((".".join(names + (e.name,)), names + (e.name,)))
                else:
                    stack.append((e.dst, names + (e.name,)))
        got = [(label, tuple(e.name for e in p.edges)) for label, p in entry_paths(g, core)]
        assert Counter(got) == Counter(want)
        assert [label for label, _ in got] == sorted(label for label, _ in want)
        # equal labels keep the depth-first preorder of the backward walk, in
        # which a path read from its last edge back follows declaration order
        position = {e.name: i for i, e in enumerate(g.edges)}
        assert got == sorted(want, key=lambda lw: (lw[0], [position[x] for x in reversed(lw[1])]))
        collided += len(got) > len({label for label, _ in got})
    assert collided >= 50, collided


def test_expand_funnel_frozen():
    got = expand_hereditary(funnel_into_cycle(), ["1", "2", "3"])
    assert got.vertices == ("1", "2", "3", "f1", "f2", "g1.f1", "g1.f2")
    assert [(e.name, e.src, e.dst) for e in got.edges] == [
        ("a", "1", "3"),
        ("b", "3", "2"),
        ("c", "2", "1"),
        ("ov_f1", "f1", "1"),
        ("ov_f2", "f2", "1"),
        ("ov_g1.f1", "g1.f1", "1"),
        ("ov_g1.f2", "g1.f2", "1"),
    ]


def test_expand_whole_vertex_set_is_identity():
    g = funnel_into_cycle()
    assert expand_hereditary(g, g.vertices) == g


def test_expand_arrow_tail():
    got = expand_hereditary(arrow(), ["2"])
    assert got.vertices == ("2", "x")
    assert [(e.name, e.src, e.dst) for e in got.edges] == [("ov_x", "x", "2")]


def test_expand_long_feeder_chain(tmp_path):
    # a chain of 1,200 vertices into a looped h: deeper than the recursion limit
    n = 1200
    chain = Graph(
        tuple(f"c{i}" for i in range(1, n + 1)) + ("h",),
        tuple(Edge(f"f{i}", f"c{i}", f"c{i + 1}") for i in range(1, n))
        + (Edge(f"f{n}", f"c{n}", "h"), Edge("l", "h", "h")),
    )
    path, out = tmp_path / "chain.txt", tmp_path / "out.txt"
    path.write_text(serialize_graph(chain), encoding="utf-8")
    assert run(["move", "expand-hereditary", str(path), "h", "--output", str(out)]) == 0
    got = parse_graph(out.read_text(encoding="utf-8"))
    assert len([v for v in got.vertices if v != "h"]) == n
    assert f"f{n}" in got.vertex_set and f"f1.f2.f3.f4" not in got.vertex_set


def test_expand_rejects_non_hereditary():
    with pytest.raises(ValueError):
        expand_hereditary(funnel_into_cycle(), ["4"])


def test_expand_rejects_empty_set():
    with pytest.raises(ValueError):
        expand_hereditary(funnel_into_cycle(), [])


def test_expand_rejects_cycle_into_set():
    # loop at 1 feeding 2: infinitely many entry paths into {2}
    g = Graph(("1", "2"), (Edge("l", "1", "1"), Edge("d", "1", "2")))
    with pytest.raises(ValueError):
        expand_hereditary(g, ["2"])


def test_expand_rejects_unmet_preconditions():
    assert expand_hereditary(funnel_into_cycle(), ["1", "2", "3"]).vertices[:3] == ("1", "2", "3")
    # stranded vertex 3, outside {1} and reaching nothing
    g = Graph(("1", "2", "3"), (Edge("l", "1", "1"), Edge("d", "2", "1")))
    with pytest.raises(ValueError, match="'3' does not reach"):
        expand_hereditary(g, ["1"])
    # a cycle outside {1}
    g2 = Graph(("1", "2"), (Edge("l", "2", "2"), Edge("d", "2", "1")))
    with pytest.raises(ValueError, match="cycle outside"):
        expand_hereditary(g2, ["1"])
    # an outside cycle that does not reach {1} strands its vertex
    g3 = Graph(("1", "2"), (Edge("l", "1", "1"), Edge("m", "2", "2")))
    with pytest.raises(ValueError, match="'2' does not reach"):
        expand_hereditary(g3, ["1"])


def test_expansion_preserves_k_data():
    g = funnel_into_cycle()
    assert k0_data(expand_hereditary(g, ["1", "2", "3"])) == k0_data(g)


# ── heads, subdivisions, sources ──────────────────────────────────────────────


def test_head_trio_profiles():
    tri = triangle()
    head = attach_head(tri, "v", 3)
    assert (len(head.vertices), len(head.edges)) == (6, 6)
    assert classify(head).sources == ("v.h3",)
    assert classify(head).sinks == ()

    sub = subdivide_edge(tri, "alpha", 3)
    assert (len(sub.vertices), len(sub.edges)) == (6, 6)
    assert classify(sub).sources == () and classify(sub).sinks == ()

    src = attach_sources(tri, "v", 3)
    assert (len(src.vertices), len(src.edges)) == (6, 6)
    assert classify(src).sources == ("v.s1", "v.s2", "v.s3")
    assert classify(src).sinks == ()


def test_attach_head_structure():
    got = attach_head(triangle(), "v", 2)
    assert got.vertices == ("u", "v", "w", "v.h1", "v.h2")
    new = [(e.name, e.src, e.dst) for e in got.edges[3:]]
    assert new == [("v.e1", "v.h1", "v"), ("v.e2", "v.h2", "v.h1")]


def test_subdivide_structure():
    got = subdivide_edge(triangle(), "alpha", 2)
    assert got.vertices == ("u", "v", "w", "alpha.v1", "alpha.v2")
    assert "alpha" not in {e.name for e in got.edges}
    chain = [(e.name, e.src, e.dst) for e in got.edges if e.name.startswith("alpha.")]
    assert chain == [
        ("alpha.e1", "alpha.v1", "u"),
        ("alpha.e2", "alpha.v2", "alpha.v1"),
        ("alpha.e3", "v", "alpha.v2"),
    ]


def test_attach_sources_structure():
    got = attach_sources(triangle(), "v", 2)
    new = [(e.name, e.src, e.dst) for e in got.edges[3:]]
    assert new == [("v.f1", "v.s1", "v"), ("v.f2", "v.s2", "v")]


def test_move_argument_errors():
    tri = triangle()
    with pytest.raises(ValueError):
        attach_head(tri, "nope", 1)
    with pytest.raises(ValueError):
        attach_head(tri, "v", 0)
    with pytest.raises(ValueError):
        subdivide_edge(tri, "nope", 1)
    with pytest.raises(ValueError):
        eliminate_source(tri, "v")  # v receives gamma


def test_eliminate_source():
    g = funnel_into_cycle()
    got = eliminate_source(g, "5")
    assert got.vertices == ("1", "2", "3", "4")
    assert "g1" not in {e.name for e in got.edges}


def test_eliminate_source_rejects_isolated_vertex():
    g = Graph(("u", "v"), (Edge("l", "v", "v"),))
    with pytest.raises(ValueError, match="source 'u' emits no edge"):
        eliminate_source(g, "u")


@given(graphs(max_vertices=5, max_edges=8), st.integers(min_value=1, max_value=3))
def test_subdivide_preserves_degree_profile(g, n):
    if not g.edges:
        return
    e0 = g.edges[0].name
    before, after = classify(g), classify(subdivide_edge(g, e0, n))
    assert len(before.sinks) == len(after.sinks)
    assert len(before.sources) == len(after.sources)


def test_pairwise_k_data_agreement():
    rng = random.Random(99)
    for _ in range(25):
        g = random_graph(rng, max_vertices=6, max_edges=10)
        v = rng.choice(g.vertices)
        n = rng.randint(1, 3)
        assert k0_data(attach_sources(g, v, n)) == k0_data(
            attach_head(g, v, n)
        )
        if g.edges:
            e = rng.choice(g.edges)
            assert k0_data(subdivide_edge(g, e.name, n)) == k0_data(
                attach_head(g, e.dst, n)
            )


# ── every move preserves the algebra or refuses ───────────────────────────────


@st.composite
def move_graphs(draw) -> Graph:
    """One or two random components plus up to two isolated vertices, so that
    sinks, sources, isolated vertices and disconnected parts all occur."""
    vertices: list[str] = []
    edges: list[Edge] = []
    for i, part in enumerate(draw(st.lists(graphs(4, 7), min_size=1, max_size=2))):
        vertices += [f"p{i}{v}" for v in part.vertices]
        edges += [Edge(f"p{i}{e.name}", f"p{i}{e.src}", f"p{i}{e.dst}") for e in part.edges]
    vertices += [f"z{i}" for i in range(draw(st.integers(min_value=0, max_value=2)))]
    return Graph(tuple(vertices), tuple(edges))


def k_data(g: Graph):
    return k0_data(g), k_summary(g, 0).rank_k1


@settings(max_examples=200, deadline=None)
@given(move_graphs(), st.data())
def test_every_move_refuses_or_preserves_k_data(g, data):
    vertex = st.sampled_from(g.vertices)
    n = data.draw(st.integers(min_value=1, max_value=3))
    moves = [
        lambda: expand_hereditary(g, hereditary_closure(g, [data.draw(vertex)])),
        lambda: attach_head(g, data.draw(vertex), n),
        lambda: attach_sources(g, data.draw(vertex), n),
        lambda: eliminate_source(g, data.draw(st.sampled_from(classify(g).sources or g.vertices))),
    ]
    if g.edges:
        moves.append(lambda: subdivide_edge(g, data.draw(st.sampled_from(g.edges)).name, n))
    before = k_data(g)
    for move in moves:
        try:
            out = move()
        except ValueError:
            continue
        assert k_data(out) == before


# ── matrix forms ──────────────────────────────────────────────────────────────


def test_matrix_graph_sizes():
    tri = triangle()
    assert matrix_graph(tri, 1) == tri
    m3 = matrix_graph(tri, 3)
    assert (len(m3.vertices), len(m3.edges)) == (9, 9)
    headed = attach_head(attach_head(attach_head(tri, "u", 1), "v", 1), "w", 1)
    assert matrix_graph(tri, 2) == headed


def test_matrix_graph_of_a_long_cycle_in_bounded_time():
    n = 1000
    cycle = Graph(tuple(f"v{i}" for i in range(n)),
                  tuple(Edge(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)))
    start = time.perf_counter()
    m3 = matrix_graph(cycle, 3)
    elapsed = time.perf_counter() - start
    assert (len(m3.vertices), len(m3.edges)) == (3 * n, 3 * n)
    assert m3.vertices[n:n + 2] == ("v0.h1", "v0.h2")
    assert elapsed < 0.5, elapsed


def test_matrix_graph_preserves_k_data():
    tri = triangle()
    for n in (2, 3, 4):
        assert k0_data(matrix_graph(tri, n)) == k0_data(tri)


# ── desourcification ──────────────────────────────────────────────────────────


def test_desourcify_funnel_frozen():
    core, trace = desourcify(funnel_into_cycle())
    assert core.vertices == ("1", "2", "3", "c.v1", "c.v2", "c.v3", "c.v4")
    assert [e.name for e in core.edges] == ["a", "b", "c.e1", "c.e2", "c.e3", "c.e4", "c.e5"]
    prof = classify(core)
    assert prof.sources == () and prof.sinks == ()
    kinds = [r.kind for r in trace.records]
    assert kinds == (
        ["EliminateSource"] * 2
        + ["ExpandHereditary"]
        + ["EliminateSource"] * 4
        + ["AttachHead", "SubdivideEdge"]
    )


def test_desourcify_head_graph_to_cycle():
    head = attach_head(triangle(), "v", 3)
    core, _ = desourcify(head)
    assert (len(core.vertices), len(core.edges)) == (6, 6)
    prof = classify(core)
    assert prof.sources == () and prof.sinks == ()
    # a 6-cycle: every vertex has exactly one outgoing and one incoming edge
    assert all(len(core.out_edges(v)) == 1 for v in core.vertices)
    assert all(len(core.in_edges(v)) == 1 for v in core.vertices)


def test_desourcify_source_free_is_identity():
    g = triangle()
    core, trace = desourcify(g)
    assert core == g
    assert trace.records == ()


def test_desourcify_rejects_sinks():
    with pytest.raises(ValueError):
        desourcify(arrow())


def test_desourcify_preserves_k_data_seeded():
    rng = random.Random(41)
    done = 0
    while done < 30:
        g = random_graph(rng, max_vertices=6, max_edges=12, no_sinks=True)
        core, _ = desourcify(g)
        prof = classify(core)
        assert prof.sources == () and prof.sinks == ()
        assert k0_data(core) == k0_data(g)
        done += 1


def test_desourcify_classifies_once(monkeypatch):
    # s01 -> s02 -> ... -> s40 -> c, with a loop at c: one source at a time
    calls = []
    original = leavitt.moves.classify

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(leavitt.moves, "classify", counting)
    chain = [f"s{i:02d}" for i in range(1, 41)] + ["c"]
    g = Graph(chain, [Edge(f"a{i:02d}", u, w) for i, (u, w) in enumerate(zip(chain, chain[1:]), 1)]
              + [Edge("lp", "c", "c")])
    core, trace = desourcify(g)
    assert calls == [g]
    assert [r.params for r in trace.records[:40]] == [(v,) for v in chain[:40]]
    assert replay(trace, g) == core


def test_desourcify_traces_replay_seeded():
    # replay runs the checked eliminate_source on every recorded elimination,
    # which desourcify itself builds without repeating the checks
    rng = random.Random(47)
    done = 0
    while done < 200:
        g = random_graph(rng, max_vertices=7, max_edges=14, no_sinks=True)
        if not classify(g).sources:
            continue
        core, trace = desourcify(g)
        assert replay(parse_trace(serialize_trace(trace)), g) == core
        done += 1


def test_desourcify_bytes_pinned():
    # digest of every output graph and trace (or error), recorded before the
    # move layer derived each path and graph once
    rng = random.Random(7)
    digest = hashlib.sha256()
    for _ in range(400):
        g = random_graph(rng, max_vertices=7, max_edges=14, no_sinks=True)
        try:
            core, trace = desourcify(g)
            text = serialize_graph(core) + serialize_trace(trace)
        except ValueError as exc:
            text = f"error: {exc}\n"
        digest.update(text.encode("utf-8") + b"\0")
    assert digest.hexdigest() == (
        "ea264328f0341177c0ad3f5c2728b5aa511535783b8a349457ca5c5c04e3e0c4")


# ── traces ────────────────────────────────────────────────────────────────────


def test_trace_round_trip_and_replay():
    g = funnel_into_cycle()
    core, trace = desourcify(g)
    text = serialize_trace(trace)
    assert parse_trace(text) == trace
    assert replay(trace, g) == core


def test_replay_verifies_hashes():
    g = funnel_into_cycle()
    _, trace = desourcify(g)
    bad = MoveTrace(
        (
            MoveRecord(
                trace.records[0].kind,
                trace.records[0].params,
                trace.records[0].input_hash,
                "0" * 16,
            ),
        )
        + trace.records[1:]
    )
    with pytest.raises(ValueError):
        replay(bad, g)
    with pytest.raises(ValueError):
        replay(trace, triangle())  # wrong starting graph: no hash matches


def test_trace_counts_are_ascii_decimal_digits():
    # int() alone also reads underscores, a plus sign and the digits of
    # other scripts; a trace reads counts as the command line does
    g = single_loop()
    for kind, move, target in (("AttachHead", attach_head, "v"),
                               ("SubdivideEdge", subdivide_edge, "e"),
                               ("AttachSources", attach_sources, "v")):
        hashes = f"{graph_hash(g)} {graph_hash(move(g, target, 10))}"
        line = f"move {kind} {target} {{}} {hashes}\n"
        assert replay(parse_trace(line.format("10")), g) == move(g, target, 10)
        for count in ("1_0", "+10", "\u0661\u0660"):
            with pytest.raises(ValueError, match="not a decimal integer"):
                replay(parse_trace(line.format(count)), g)


def test_record_arity_checked():
    with pytest.raises(ValueError):
        MoveRecord("AttachHead", ("v",), "0" * 16, "1" * 16)
    with pytest.raises(ValueError):
        MoveRecord("Teleport", ("v",), "0" * 16, "1" * 16)


def test_trace_hashes_are_graph_hashes():
    g = two_way_line()
    with_src = attach_sources(g, "v2", 1)
    core, trace = desourcify(with_src)
    assert trace.records[0].input_hash == graph_hash(with_src)
    assert trace.records[-1].output_hash == graph_hash(core)
    assert serialize_graph(replay(trace, with_src)) == serialize_graph(core)


def test_desourcify_hashes_each_graph_once(monkeypatch):
    hashed = []
    original = leavitt.moves.graph_hash

    def recording(g):
        hashed.append(serialize_graph(g))
        return original(g)

    monkeypatch.setattr(leavitt.moves, "graph_hash", recording)
    rng = random.Random(43)
    done = 0
    while done < 10:
        g = random_graph(rng, max_vertices=6, max_edges=12, no_sinks=True)
        hashed.clear()
        _, trace = desourcify(g)
        if not trace.records:
            continue
        assert len(set(hashed)) == len(hashed) <= len(trace.records) + 1
        done += 1
    hashed.clear()
    desourcify(funnel_into_cycle())
    assert len(set(hashed)) == len(hashed)


# ── the source peel ───────────────────────────────────────────────────────────


def reference_peel(g: Graph) -> list[str]:
    """Remove the least-named vertex with no in-edge from a vertex still left."""
    left, order = set(g.vertices), []
    while free := [v for v in left if not any(e.dst == v and e.src in left for e in g.edges)]:
        order.append(min(free))
        left.remove(order[-1])
    return order


def has_cycle_by_dfs(g: Graph) -> bool:
    state: dict[str, str] = {}  # "open" while on the DFS path, then "done"

    def visit(v: str) -> bool:
        state[v] = "open"
        for e in g.out_edges(v):
            if state.get(e.dst) == "open" or (e.dst not in state and visit(e.dst)):
                return True
        state[v] = "done"
        return False

    return any(v not in state and visit(v) for v in g.vertices)


def test_peel_matches_reference_loop_and_finds_cycles():
    rng = random.Random(59)
    cyclic = 0
    for _ in range(300):
        g = shaped_multigraph(rng)
        order = _peel(g.vertices, g.edges)
        assert order == reference_peel(g)
        assert (len(order) < len(g.vertices)) == has_cycle_by_dfs(g)
        cyclic += len(order) < len(g.vertices)
    assert 0 < cyclic < 300
