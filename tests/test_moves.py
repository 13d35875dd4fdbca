"""Graph moves: hereditary expansion, heads, subdivision, sources, traces.

Structural expectations are frozen from hand application of the definitions;
invariance claims (same K-theory data across Morita-preserving moves) are
cross-checked through the independent K-theory module.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
import random
import time
import tracemalloc
from collections import Counter
from graphlib import TopologicalSorter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leavitt.moves
from conftest import (
    arrow,
    diamond_ladder,
    funnel_into_cycle,
    graphs,
    k0_data,
    random_graph,
    shaped_multigraph,
    single_loop,
    triangle,
    two_way_line,
)
from leavitt.algebra import format_family, verify_ck_family
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
    EntryPath,
    MoveRecord,
    MoveTrace,
    _peel,
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


# ── hereditary expansion ──────────────────────────────────────────────────────


def test_entry_paths_funnel():
    paths = entry_paths(funnel_into_cycle(), ["1", "2", "3"])
    assert [p.label for p in paths] == ["f1", "f2", "g1.f1", "g1.f2"]
    assert all(p.label == p.path.label() for p in paths)


def test_entry_labels_that_collide_get_free_variants():
    # the path a.b and the edge a.b both enter {h} with the label "a.b": the
    # second path's vertex and edge take the least free _<k> suffix
    g = Graph(("x", "y", "h"), (Edge("a", "x", "y"), Edge("b", "y", "h"),
                                Edge("a.b", "x", "h"), Edge("l", "h", "h")))
    assert [p.label for p in entry_paths(g, ["h"])] == ["a.b", "a.b", "b"]
    assert serialize_graph(expand_hereditary(g, ["h"])) == (
        "vertex h\nvertex a.b\nvertex a.b_1\nvertex b\n"
        "edge l h h\nedge ov_a.b a.b h\nedge ov_a.b_1 a.b_1 h\nedge ov_b b h\n")


def test_expansion_family_maps_colliding_entry_labels_apart():
    # the family of the graph above maps each of the two a.b path vertices,
    # and each ov_ edge, under the name the expansion gave it
    g = Graph(("x", "y", "h"), (Edge("a", "x", "y"), Edge("b", "y", "h"),
                                Edge("a.b", "x", "h"), Edge("l", "h", "h")))
    expanded = expand_hereditary(g, ["h"])
    family = leavitt.moves.expansion_family(g, ["h"])
    assert list(family.vertex_images) == ["h", "a.b", "a.b_1", "b"]
    assert list(family.edge_images) == ["ov_a.b", "ov_a.b_1", "ov_b", "l"]
    paths = [p.path for p in entry_paths(g, ["h"])]
    assert [family.edge_images[e].terms for e in ("ov_a.b", "ov_a.b_1")] == [
        {(p, PathSeq("h")): 1} for p in paths[:2]]
    assert verify_ck_family(expanded, family, g).ok


def test_expand_joins_each_entry_label_once(monkeypatch):
    # the walk that finds a path grows its label one edge at a time, so
    # neither caller joins a path's edge names again
    g, hs = funnel_into_cycle(), ["1", "2", "3"]
    paths = entry_paths(g, hs)
    assert all(p.label == p.path.label() for p in paths)
    joined = []
    real_label = PathSeq.label
    monkeypatch.setattr(PathSeq, "label", lambda p: joined.append(p) or real_label(p))
    expand_hereditary(g, hs)
    leavitt.moves.expansion_family(g, hs)
    assert joined == []


def test_entry_paths_check_only_the_new_joint(monkeypatch):
    # 4,092 entry paths, each a record linked to the one it extends by one
    # edge: neither the walk nor the expansion builds a PathSeq, and the
    # check of PathSeq.__new__ runs only when a record's path is asked for
    g = diamond_ladder(10)
    made = []
    real_new = PathSeq.__new__
    monkeypatch.setattr(PathSeq, "__new__",
                        lambda cls, *args: made.append(args) or real_new(cls, *args))
    paths = entry_paths(g, ["x10"])
    expand_hereditary(g, ["x10"])
    assert len(paths) == 4092
    assert made == []
    built = [p.path for p in paths]
    assert len(made) == 4092
    assert all(p.label == q.label() for p, q in zip(paths, built))
    assert all(p.target == q.target == "x10" for p, q in zip(paths, built))


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
        got = [(p.label, tuple(e.name for e in p.path.edges)) for p in entry_paths(g, core)]
        assert Counter(got) == Counter(want)
        assert [label for label, _ in got] == sorted(label for label, _ in want)
        # equal labels keep the depth-first preorder of the backward walk, in
        # which a path read from its last edge back follows declaration order
        position = {e.name: i for i, e in enumerate(g.edges)}
        assert got == sorted(want, key=lambda lw: (lw[0], [position[x] for x in reversed(lw[1])]))
        collided += len(got) > len({label for label, _ in got})
    assert collided >= 50, collided


def path_count(g: Graph, hs) -> int:
    """The number of entry paths into ``hs``, by an O(V + E) count over the
    acyclic part outside it: the paths leaving an outside vertex are one per
    edge into the set plus those leaving each outside vertex it feeds."""
    h = frozenset(hs)
    outside = [v for v in g.vertices if v not in h]
    fed = TopologicalSorter({v: {e.dst for e in g.out_edges(v) if e.dst not in h}
                             for v in outside})
    leaving: dict[str, int] = {}
    for v in fed.static_order():  # a vertex after every vertex it feeds
        leaving[v] = sum(1 if e.dst in h else leaving[e.dst] for e in g.out_edges(v))
    return sum(leaving.values())


def test_entry_paths_count_matches_path_count_oracle():
    for rungs in range(8, 15):
        g = diamond_ladder(rungs)
        assert len(entry_paths(g, [f"x{rungs}"])) == path_count(g, [f"x{rungs}"]) \
            == 2 ** (rungs + 2) - 4
    rng = random.Random(53)
    for _ in range(250):
        g, core = feeder_into_core(rng)
        assert len(entry_paths(g, core)) == path_count(g, core)


def test_entry_paths_record_path_checks_its_joints():
    # a record links edges without checking them; its path is checked when built
    g = funnel_into_cycle()
    g1, f1, a = g.edge("g1"), g.edge("f1"), g.edge("a")
    good = EntryPath("g1.f1", "1", g1, EntryPath("f1", "1", f1, None))
    assert good.path == PathSeq("5", (g1, f1))
    broken = EntryPath("g1.a", "3", g1, EntryPath("a", "3", a, None))
    with pytest.raises(ValueError, match="edge 'a' does not start where the path ends"):
        broken.path
    misaimed = EntryPath("f1", "2", f1, None)
    with pytest.raises(ValueError, match="the path ends at '1', not '2'"):
        misaimed.path


def test_entry_paths_copy_pickle_compare_and_hash_without_recursion():
    # 2,000 records linked up to 2,000 deep: each operation walks the links
    # in a loop, and a copy shares its tails as the original does
    n = 2000
    g = Graph([f"s{i}" for i in range(n)] + ["c"],
              [Edge(f"a{i}", f"s{i}", f"s{i + 1}" if i + 1 < n else "c") for i in range(n)]
              + [Edge("lp", "c", "c")])
    paths = entry_paths(g, ["c"])
    want = [p.path for p in paths]
    assert len(paths) == n and max(len(path.edges) for path in want) == n
    copied, unpickled = copy.deepcopy(paths), pickle.loads(pickle.dumps(paths))
    assert copied == paths
    longest = []
    for other in (paths, copied, unpickled):
        assert [p.path for p in other] == want
        longest.append(max(other, key=lambda p: len(p.label)))
        assert longest[-1].rest is next(p for p in other if p.label == longest[-1].rest.label)
    assert longest[1] == longest[2] and not longest[1] != longest[2]
    assert len({hash(p) for p in longest}) == 1
    # the longest records of two chains that differ only in their last edge
    renamed = Graph(g.vertices, g.edges[:-2] + (Edge("z", f"s{n - 1}", "c"), g.edges[-1]))
    other = max(entry_paths(renamed, ["c"]), key=lambda p: len(p.label))
    assert other != longest[0] and not other == longest[0]
    assert other.label[:-1] == longest[0].label[:-len(f"a{n - 1}")]


def test_entry_paths_peak_memory_on_twelve_rungs():
    # 16,380 entry paths, each one record holding its label and a link to
    # its parent's record, with no edge tuple of its own
    g = diamond_ladder(12)
    g._in  # the in-edge index is the graph's, built once
    tracemalloc.start()
    try:
        paths = entry_paths(g, ["x12"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(paths) == 16380
    assert peak < 5_000_000, peak


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


def test_expansion_bytes_pinned():
    # digest of every expanded graph and expansion family (or error), over
    # feeders with dotted and colliding labels, recorded before entry paths
    # were grown one checked joint at a time; re-recorded when the 181 of
    # the 300 feeders whose labels collide got minted names instead of a
    # duplicate-vertex error, the other 119 texts unchanged
    rng = random.Random(59)
    digest = hashlib.sha256()
    for _ in range(300):
        g, core = feeder_into_core(rng)
        try:
            expanded = expand_hereditary(g, core)
            text = serialize_graph(expanded) + format_family(expanded, expansion_family(g, core))
        except ValueError as exc:
            text = f"error: {exc}\n"
        digest.update(text.encode("utf-8") + b"\0")
    assert digest.hexdigest() == (
        "3fa2d35ba1e4adaf0e59f4ee03e905a22d0744d3ae9ff40b1668bbcd033ac52c")


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
    for n in (True, 1.0):
        with pytest.raises(ValueError, match="^the length must be a positive integer$"):
            attach_head(tri, "v", n)
    with pytest.raises(ValueError):
        subdivide_edge(tri, "nope", 1)
    with pytest.raises(ValueError):
        eliminate_source(tri, "v")  # v receives gamma
    # the family's checks are the move's, in the move's order: edge, then length
    for e0, n, message in (("nope", 0, "unknown edge 'nope'"),
                           ("alpha", 0, "the length must be a positive integer"),
                           ("alpha", True, "the length must be a positive integer")):
        for build in (subdivide_edge, subdivision_family):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(tri, e0, n)


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
    assert [(r.kind, r.params) for r in trace.records] == [
        ("EliminateSources", ("5,4",)),
        ("ExpandHereditary", ("1,2,3",)),
        ("EliminateSources", ("f1,f2,g1.f1,g1.f2",)),
        ("AttachHeads", ("1:4",)),
        ("SubdivideEdges", ("c:4",)),
    ]


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
    assert trace.records[0].params == (",".join(chain[:40]),)
    assert replay(trace, g) == core


def test_desourcify_reuses_the_core_the_peel_leaves(monkeypatch):
    # eliminating the expansion's path vertices leaves the peel's core, so
    # desourcify builds four graphs: the core, the expansion, the head form
    # and the subdivided output
    built = []
    original = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__", lambda g: built.append(g) or original(g))
    g = attach_head(funnel_into_cycle(), "5", 1)
    built.clear()
    core, trace = desourcify(g)
    monkeypatch.undo()
    peel, _, path_vertices, heads, chains = trace.records
    assert path_vertices.output_hash == peel.output_hash == heads.input_hash == chains.input_hash
    assert len(built) == 4
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


def fed_triangle() -> Graph:
    """A 3-cycle fed by sources at each of its vertices, two paths into 2."""
    return Graph(["1", "2", "3", "x", "y", "z"],
                 [Edge("a", "1", "2"), Edge("b", "2", "3"), Edge("c", "3", "1"), Edge("f", "x", "1"),
                  Edge("g", "y", "2"), Edge("h", "z", "y"), Edge("k", "z", "3")])


def per_core_vertex(trace: MoveTrace, g: Graph) -> MoveTrace:
    """A ``desourcify`` trace with its three post-expansion batch records
    split back into one ``EliminateSources``, ``AttachHead`` and
    ``SubdivideEdge`` triple per core vertex, each vertex's sources taken off
    the list by its head count: the trace one record per elimination phase
    gave.  Built from the single-record moves alone."""
    if not trace.records:
        return trace
    *records, elim, heads, chains = trace.records
    assert [r.kind for r in (elim, heads, chains)] == [
        "EliminateSources", "AttachHeads", "SubdivideEdges"]
    cur = replay(MoveTrace(tuple(records)), g)
    sources = elim.params[0].split(",")
    for vn, en in zip(heads.params[0].split(","), chains.params[0].split(","), strict=True):
        (v, n), (e0, m) = vn.split(":"), en.split(":")
        assert n == m
        group, sources = sources[:int(n)], sources[int(n):]
        base = cur
        for s in group:
            base = eliminate_source(base, s)
        nxt = subdivide_edge(base, e0, int(n))
        records += [
            MoveRecord("EliminateSources", (",".join(group),), graph_hash(cur), graph_hash(base)),
            MoveRecord("AttachHead", (v, n), graph_hash(base), graph_hash(attach_head(base, v, int(n)))),
            MoveRecord("SubdivideEdge", (e0, n), graph_hash(base), graph_hash(nxt)),
        ]
        cur = nxt
    assert not sources and graph_hash(cur) == chains.output_hash
    return MoveTrace(tuple(records))


def unbatched(trace: MoveTrace, g: Graph) -> MoveTrace:
    """``per_core_vertex(trace, g)`` with each ``EliminateSources`` record
    written as one ``EliminateSource`` record per listed vertex, with the
    hashes of the graphs between them: the trace one record per source
    gave."""
    known = {graph_hash(g): g}
    records = []
    for rec in per_core_vertex(trace, g).records:
        cur = known[rec.input_hash]
        if rec.kind != "EliminateSources":
            records.append(rec)
            known[rec.output_hash] = replay(MoveTrace((rec,)), cur)
            continue
        for v in rec.params[0].split(","):
            nxt = eliminate_source(cur, v)
            records.append(MoveRecord("EliminateSource", (v,), graph_hash(cur), graph_hash(nxt)))
            cur = nxt
        assert graph_hash(cur) == rec.output_hash
        known[rec.output_hash] = cur
    return MoveTrace(tuple(records))


def test_desourcify_bytes_pinned():
    # digests of every output graph and trace (or error): unbatched into one
    # record per source, recorded before the move layer derived each path
    # and graph once; split into one record per elimination phase and one
    # head and subdivision per core vertex, recorded when each elimination
    # phase became one record; as written, in five records
    rng = random.Random(7)
    per_source, per_phase, batched = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for _ in range(400):
        g = random_graph(rng, max_vertices=7, max_edges=14, no_sinks=True)
        try:
            core, trace = desourcify(g)
            texts = [serialize_graph(core) + serialize_trace(t)
                     for t in (unbatched(trace, g), per_core_vertex(trace, g), trace)]
        except ValueError as exc:
            texts = [f"error: {exc}\n"] * 3
        for digest, text in zip((per_source, per_phase, batched), texts):
            digest.update(text.encode("utf-8") + b"\0")
    assert per_source.hexdigest() == (
        "ea264328f0341177c0ad3f5c2728b5aa511535783b8a349457ca5c5c04e3e0c4")
    assert per_phase.hexdigest() == (
        "21a28f7bafd728ec93c82760a4404884d20bf652a2ccb3f3be9f07afbf67d85e")
    assert batched.hexdigest() == (
        "a622b204ca7b2ef416129860974efc796b7867743ace04703da47127ee63ea6c")


def chain_into_loop(k: int) -> Graph:
    """Sources s0001 -> s0002 -> ... -> s<k> -> c, with a loop at c."""
    chain = [f"s{i:04d}" for i in range(1, k + 1)] + ["c"]
    return Graph(chain, [Edge(f"a{i:04d}", u, w) for i, (u, w) in enumerate(zip(chain, chain[1:]), 1)]
                 + [Edge("lp", "c", "c")])


def test_desourcify_trace_hashes_bounded_by_the_expansion(monkeypatch):
    # one record per elimination phase hashes each graph of the pipeline
    # once; one record per source re-hashed about k/2 copies of the expansion
    import leavitt.graph

    fed = []
    original = leavitt.graph.fnv1a64

    def counting(data, *running):
        fed.append(len(data))
        return original(data, *running)

    g = chain_into_loop(200)
    expansion = len(serialize_graph(expand_hereditary(g, ["c"])).encode("utf-8"))
    monkeypatch.setattr(leavitt.graph, "fnv1a64", counting)
    core, trace = desourcify(g)
    assert [r.kind for r in trace.records] == [
        "EliminateSources", "ExpandHereditary", "EliminateSources", "AttachHeads", "SubdivideEdges"]
    assert [r.params for r in trace.records[3:]] == [("c:200",), ("lp:200",)]
    assert sum(fed) <= 3 * expansion, (sum(fed), expansion)
    monkeypatch.undo()
    assert replay(parse_trace(serialize_trace(trace)), g) == core


def source_forest(rng: random.Random, n_core: int, n_tree: int) -> Graph:
    """A Hamiltonian cycle with as many random chords, and a forest of
    ``n_tree`` sources hanging into it: every tree vertex emits one edge, to
    an earlier tree vertex or to the core."""
    core = [f"c{i}" for i in range(n_core)]
    ends = [(i, (i + 1) % n_core) for i in range(n_core)]
    ends += [(rng.randrange(n_core), rng.randrange(n_core)) for _ in range(n_core)]
    edges = [Edge(f"ce{k}", core[a], core[b]) for k, (a, b) in enumerate(ends)]
    tree = [f"t{i}" for i in range(n_tree)]
    for i, t in enumerate(tree):
        parent = rng.choice(tree[:i]) if i and rng.random() < 0.6 else rng.choice(core)
        edges.append(Edge(f"u{i}", t, parent))
    return Graph(core + tree, edges)


@pytest.mark.parametrize("n_core", [100, 300, 600])
def test_desourcify_hashes_five_graphs_whatever_the_core(monkeypatch, n_core):
    # one batch record for all heads and one for all subdivisions: the graphs
    # hashed do not grow with the number of core vertices fed by sources
    g = source_forest(random.Random(n_core), n_core, 3 * n_core)
    hashed = []
    original = leavitt.moves.graph_hash
    monkeypatch.setattr(leavitt.moves, "graph_hash", lambda x: hashed.append(x) or original(x))
    start = time.perf_counter()
    core, trace = desourcify(g)
    elapsed = time.perf_counter() - start
    monkeypatch.undo()
    assert len(hashed) <= 5
    assert [r.kind for r in trace.records] == [
        "EliminateSources", "ExpandHereditary", "EliminateSources", "AttachHeads", "SubdivideEdges"]
    assert len(trace.records[3].params[0].split(",")) > n_core // 2
    if n_core == 600:
        assert elapsed < 0.5, elapsed
    assert replay(parse_trace(serialize_trace(trace)), g) == core


# ── traces ────────────────────────────────────────────────────────────────────


# written one EliminateSource record per source, before elimination phases
# became one record each; for attach_head(funnel_into_cycle(), "5", 1)
_PARENT_TRACE = """\
move EliminateSource 5.h1 3632d6931ced2ac9 0a6f30dbd90ce17c
move EliminateSource 5 0a6f30dbd90ce17c 5b90eebd5339a8a3
move EliminateSource 4 5b90eebd5339a8a3 710c640e3a3c9d70
move ExpandHereditary 1,2,3 3632d6931ced2ac9 1f40d139aa3590bb
move EliminateSource 5.e1.g1.f1 1f40d139aa3590bb ad9edcfc587a75a3
move EliminateSource 5.e1.g1.f2 ad9edcfc587a75a3 d78375476aafe564
move EliminateSource f1 d78375476aafe564 ad3071cb61968e0f
move EliminateSource f2 ad3071cb61968e0f 5300961db1d72deb
move EliminateSource g1.f1 5300961db1d72deb a6ae8ee41f1a8aec
move EliminateSource g1.f2 a6ae8ee41f1a8aec 710c640e3a3c9d70
move AttachHead 1 6 710c640e3a3c9d70 03f306f1c9e93514
move SubdivideEdge c 6 710c640e3a3c9d70 aaae82c70e70e0d8
"""


def test_parent_trace_one_record_per_source_still_replays():
    g = attach_head(funnel_into_cycle(), "5", 1)
    core, trace = desourcify(g)
    assert replay(parse_trace(_PARENT_TRACE), g) == core
    assert serialize_trace(unbatched(trace, g)) == _PARENT_TRACE
    assert serialize_trace(trace) == (
        "move EliminateSources 5.h1,5,4 3632d6931ced2ac9 710c640e3a3c9d70\n"
        "move ExpandHereditary 1,2,3 3632d6931ced2ac9 1f40d139aa3590bb\n"
        "move EliminateSources 5.e1.g1.f1,5.e1.g1.f2,f1,f2,g1.f1,g1.f2"
        " 1f40d139aa3590bb 710c640e3a3c9d70\n"
        "move AttachHeads 1:6 710c640e3a3c9d70 03f306f1c9e93514\n"
        "move SubdivideEdges c:6 710c640e3a3c9d70 aaae82c70e70e0d8\n")


# written one record per elimination phase, with one head and one
# subdivision per core vertex, before each of those became one batch
# record; for fed_triangle()
_PHASE_TRACE = """\
move EliminateSources x,z,y 64432134df2d85b3 d112e09ee4b95324
move ExpandHereditary 1,2,3 64432134df2d85b3 2e95c17c2da21de5
move EliminateSources f 2e95c17c2da21de5 a0b8942674b9ea51
move AttachHead 1 1 a0b8942674b9ea51 04a44f5bf7c32c1a
move SubdivideEdge c 1 a0b8942674b9ea51 31382b3c714e7b84
move EliminateSources g,h.g 31382b3c714e7b84 59d520c6ae17546c
move AttachHead 2 2 59d520c6ae17546c 98ea91bcbf6ebe2c
move SubdivideEdge a 2 59d520c6ae17546c 2ef573dad2bb0ac6
move EliminateSources k 2ef573dad2bb0ac6 3739f9c04f8a664f
move AttachHead 3 1 3739f9c04f8a664f b0ae450cb1447494
move SubdivideEdge b 1 3739f9c04f8a664f 7649bad2a82ecf64
"""

_FED_TRIANGLE_TRACE = """\
move EliminateSources x,z,y 64432134df2d85b3 d112e09ee4b95324
move ExpandHereditary 1,2,3 64432134df2d85b3 2e95c17c2da21de5
move EliminateSources f,g,h.g,k 2e95c17c2da21de5 d112e09ee4b95324
move AttachHeads 1:1,2:2,3:1 d112e09ee4b95324 e372d2c8957e5a40
move SubdivideEdges c:1,a:2,b:1 d112e09ee4b95324 7649bad2a82ecf64
"""


def test_trace_one_head_per_core_vertex_still_replays():
    g = fed_triangle()
    core, trace = desourcify(g)
    assert serialize_trace(trace) == _FED_TRIANGLE_TRACE
    assert replay(parse_trace(_PHASE_TRACE), g) == core
    assert serialize_trace(per_core_vertex(trace, g)) == _PHASE_TRACE
    assert [e.name for e in core.edges] == [
        "c.e1", "c.e2", "a.e1", "a.e2", "a.e3", "b.e1", "b.e2"]


@pytest.mark.parametrize("old, new, message", [
    ("e372d2c8957e5a40", "e372d2c8957e5a41",
     "record 3: output hash mismatch (e372d2c8957e5a40 != e372d2c8957e5a41)"),
    ("7649bad2a82ecf64", "7649bad2a82ecf65",
     "record 4: output hash mismatch (7649bad2a82ecf64 != 7649bad2a82ecf65)"),
    ("3:1 d112e09ee4b95324", "3:1 d112e09ee4b95325",
     "record 3: input hash d112e09ee4b95325 matches no known graph"),
    ("1:1,2:2,3:1", "1:1,3:1", "record 3: output hash mismatch"),
    ("c:1,a:2,b:1", "c:1,a:2", "record 4: output hash mismatch"),
    ("1:1,2:2,3:1", "1:1,2:2,2:2,3:1", "record 3: output hash mismatch"),
    ("c:1,a:2,b:1", "c:1,a:2,a:2,b:1", "record 4: unknown edge 'a'"),
    ("1:1,2:2,3:1", "1:1,2:2,4:1", "record 3: unknown vertex '4'"),
    ("c:1,a:2,b:1", "c:1,a:2,q:1", "record 4: unknown edge 'q'"),
    ("1:1,2:2,3:1", "1:1,2-2,3:1", "record 3: expected name:count, not '2-2'"),
    ("1:1,2:2,3:1", "1:1,,2:2,3:1", "record 3: expected name:count, not ''"),
    ("c:1,a:2,b:1", "c:1,a:2,b:1:1", "record 4: not a decimal integer: '1:1'"),
    ("c:1,a:2,b:1", "c:1,a:two,b:1", "record 4: not a decimal integer: 'two'"),
    ("1:1,2:2,3:1", "1:1,2:0,3:1", "record 3: the length must be a positive integer"),
    ("c:1,a:2,b:1", "c:1,a:0,b:1", "record 4: the length must be a positive integer"),
    ("c:1,a:2,b:1", "c:1,a:-2,b:1", "record 4: the length must be a positive integer"),
])
def test_batch_head_and_subdivision_records_reject_a_wrong_entry(old, new, message):
    text = _FED_TRIANGLE_TRACE
    assert old in text
    with pytest.raises(ValueError) as info:
        replay(parse_trace(text.replace(old, new, 1)), fed_triangle())
    assert str(info.value).startswith(message) and "\n" not in str(info.value)


def test_batch_records_are_their_single_moves_in_turn():
    # a later entry may name what an earlier one made, a name that clashes
    # takes the same free variant in a batch as in the single move, and an
    # edge an earlier subdivision removes frees its name
    g = single_loop()
    for kind, move, entries in (
        ("AttachHeads", attach_head, [("v", 2), ("v.h2", 1), ("v.h2.h1", 3)]),
        ("SubdivideEdges", subdivide_edge, [("e", 2), ("e.e3", 1), ("e.e1", 3)]),
    ):
        want = g
        for name, n in entries:
            want = move(want, name, n)
        line = (f"move {kind} {','.join(f'{x}:{n}' for x, n in entries)}"
                f" {graph_hash(g)} {graph_hash(want)}\n")
        assert replay(parse_trace(line), g) == want
    clash = Graph(["v"], [Edge("e", "v", "v"), Edge("e.e1", "v", "v")])
    assert [e.name for e in subdivide_edge(clash, "e", 1).edges] == ["e.e1", "e.e1_1", "e.e2"]
    want = subdivide_edge(subdivide_edge(clash, "e", 1), "e.e1", 1)
    assert [e.name for e in want.edges] == ["e.e1_1", "e.e2", "e.e1.e1", "e.e1.e2"]
    line = f"move SubdivideEdges e:1,e.e1:1 {graph_hash(clash)} {graph_hash(want)}\n"
    assert replay(parse_trace(line), clash) == want
    line = f"move SubdivideEdges e:1,e.e1:1 {graph_hash(clash)} {'0' * 16}\n"
    with pytest.raises(ValueError, match="^record 0: output hash mismatch"):
        replay(parse_trace(line), clash)


@pytest.mark.parametrize("old, new, message", [
    ("710c640e3a3c9d70\nmove Expand", "710c640e3a3c9d71\nmove Expand",
     "record 0: output hash mismatch (710c640e3a3c9d70 != 710c640e3a3c9d71)"),
    ("EliminateSources 5.h1,5,4 3632d6931ced2ac9", "EliminateSources 5.h1,5,4 3632d6931ced2ac8",
     "record 0: input hash 3632d6931ced2ac8 matches no known graph"),
    ("5.h1,5,4", "5.h1,4", "record 0: vertex '4' is not a source"),
    ("5.h1,5,4", "5.h1,5", "record 0: output hash mismatch (5b90eebd5339a8a3 != 710c640e3a3c9d70)"),
    (",g1.f1,g1.f2", ",g1.f1", "record 2: output hash mismatch"),
    ("5.h1,5,4", "5.h1,5,5,4", "record 0: unknown vertex '5'"),
    ("5.h1,5,4", "5,5.h1,4", "record 0: vertex '5' is not a source"),
    ("5.h1,5,4", "5.h1,5,4,1", "record 0: vertex '1' is not a source"),
    ("5.h1,5,4", "5.h1,5,4,x", "record 0: unknown vertex 'x'"),
])
def test_batch_record_trace_rejects_a_wrong_phase(old, new, message):
    g = attach_head(funnel_into_cycle(), "5", 1)
    text = serialize_trace(desourcify(g)[1])
    assert old in text
    with pytest.raises(ValueError) as info:
        replay(parse_trace(text.replace(old, new, 1)), g)
    assert str(info.value).startswith(message) and "\n" not in str(info.value)


def test_batch_record_trace_checks_emitting_sources():
    # the sources of a phase must each emit an edge, as eliminate_source's must
    g = Graph(["x", "y", "c"], [Edge("a", "y", "c"), Edge("lp", "c", "c")])
    out = Graph(["c"], [Edge("lp", "c", "c")])
    line = f"move EliminateSources y,x {graph_hash(g)} {graph_hash(out)}\n"
    with pytest.raises(ValueError, match="^record 0: source 'x' emits no edge$"):
        replay(parse_trace(line), g)


def test_trace_round_trip_and_replay():
    g = funnel_into_cycle()
    core, trace = desourcify(g)
    text = serialize_trace(trace)
    assert parse_trace(text) == trace
    # comment lines and blank lines are skipped
    assert parse_trace("# desourcify funnel\n\n" + text + "   \n") == trace
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
    record = MoveRecord("AttachHead", ("v", "1"), "0" * 16, "1" * 16)
    with pytest.raises(ValueError, match="unknown move kind 'Teleport'"):
        record._replace(kind="Teleport")
    with pytest.raises(ValueError, match="AttachHead takes 2 parameter"):
        MoveRecord._make(("AttachHead", ("v",), "0" * 16, "1" * 16))
    assert record._replace(params=("w", "2")) == ("AttachHead", ("w", "2"), "0" * 16, "1" * 16)


def test_parse_trace_names_the_bad_line():
    _, trace = desourcify(funnel_into_cycle())
    first = serialize_trace(trace).splitlines()[0]
    hashes = "0" * 16 + " " + "1" * 16
    for bad, message in (
        ("move AttachHead v", "expected 'move <kind> <params...> <in> <out>'"),
        ("step AttachHead v 1 " + hashes, "expected 'move <kind> <params...> <in> <out>'"),
        ("move Teleport v " + hashes, "unknown move kind 'Teleport'"),
        ("move AttachHead v " + hashes, "AttachHead takes 2 parameter(s)"),
    ):
        with pytest.raises(ValueError) as info:
            parse_trace(f"{first}\n{bad}\n")
        assert str(info.value) == f"line 2: {message}"


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
