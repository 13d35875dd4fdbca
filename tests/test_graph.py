"""Graph foundations: classification, closures, cycles, text format.

The oracles here are deliberately dumb: subset enumeration for closures,
boolean matrix closure for reachability, exhaustive simple-cycle search for
exit-free cycles.  The library answers must match them on random graphs and
match the hand-computed values frozen below.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import arrow, funnel_into_cycle, graphs, rose2, single_loop, triangle, vertex_subsets
from leavitt.graph import (
    Edge,
    Graph,
    PathSeq,
    classify,
    complement_graph,
    cycles_without_exits,
    distinguished_paths,
    graph_hash,
    hereditary_closure,
    hs_closure,
    is_hereditary,
    is_saturated,
    parse_graph,
    path_in,
    reaches,
    restrict,
    saturated_closure,
    serialize_graph,
)


# ── oracles ───────────────────────────────────────────────────────────────────


def subsets(items):
    for k in range(len(items) + 1):
        for combo in combinations(items, k):
            yield set(combo)


def hereditary_by_definition(g: Graph, s: set) -> bool:
    return all(e.dst in s for e in g.edges if e.src in s)


def saturated_by_definition(g: Graph, s: set) -> bool:
    for v in g.vertices:
        out = g.out_edges(v)
        if out and all(e.dst in s for e in out) and v not in s:
            return False
    return True


def oracle_closure(g: Graph, xs, hereditary=False, saturated=False) -> set:
    """Intersection of every superset satisfying the requested conditions."""
    base = set(xs)
    result = set(g.vertices)
    for s in subsets(g.vertices):
        if not base <= s:
            continue
        if hereditary and not hereditary_by_definition(g, s):
            continue
        if saturated and not saturated_by_definition(g, s):
            continue
        result &= s
    return result


def oracle_reaches(g: Graph):
    """Reflexive-transitive closure by Warshall's algorithm."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    m = [[i == j for j in range(n)] for i in range(n)]
    for e in g.edges:
        m[idx[e.src]][idx[e.dst]] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                m[i][j] = m[i][j] or (m[i][k] and m[k][j])
    return lambda v, w: m[idx[v]][idx[w]]


def oracle_exitless_cycles(g: Graph) -> set:
    """All simple cycles, as frozensets of edge names, whose vertices emit
    exactly one edge; found by exhaustive DFS over simple paths."""
    found = set()

    def walk(start, at, used_vertices, used_edges):
        for e in g.out_edges(at):
            if e.dst == start:
                found.add(frozenset(n for n in used_edges + (e.name,)))
            elif e.dst not in used_vertices:
                walk(start, e.dst, used_vertices | {e.dst}, used_edges + (e.name,))

    for v in g.vertices:
        walk(v, v, {v}, ())
    exitless = set()
    for cyc in found:
        vertices = {g.edge(n).src for n in cyc}
        if all(len(g.out_edges(v)) == 1 for v in vertices):
            exitless.add(cyc)
    return exitless


# ── construction and text format ──────────────────────────────────────────────


def test_rejects_duplicate_vertex():
    with pytest.raises(ValueError):
        Graph(("a", "a"), ())


def test_rejects_duplicate_edge_name():
    with pytest.raises(ValueError):
        Graph(("a",), (Edge("e", "a", "a"), Edge("e", "a", "a")))


def test_rejects_unknown_endpoint():
    with pytest.raises(ValueError):
        Graph(("a",), (Edge("e", "a", "b"),))


def test_rejects_bad_name():
    with pytest.raises(ValueError):
        Graph(("a vertex",), ())
    with pytest.raises(ValueError):
        Graph(("a",), (Edge("e!", "a", "a"),))


def test_parse_rejects_malformed_line():
    with pytest.raises(ValueError):
        parse_graph("vertex a\nedge e a\n")
    with pytest.raises(ValueError):
        parse_graph("frobnicate a\n")


def test_parse_skips_comments_and_blanks():
    g = parse_graph("# a loop\n\nvertex v\nedge e v v\n")
    assert g == single_loop()


def test_serialize_golden():
    assert serialize_graph(arrow()) == "vertex 1\nvertex 2\nedge x 1 2\n"


@given(graphs())
def test_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


@given(graphs())
def test_hash_is_stable_hex(g):
    h = graph_hash(g)
    assert len(h) == 16 and h == graph_hash(parse_graph(serialize_graph(g)))


# ── paths ─────────────────────────────────────────────────────────────────────


def test_path_composition_checked():
    g = funnel_into_cycle()
    p = path_in(g, ["g1", "f1"])
    assert p.source == "5" and p.target == "1" and p.length == 2
    assert p.label() == "g1.f1"
    with pytest.raises(ValueError):
        path_in(g, ["f1", "g1"])


def test_trivial_path():
    p = PathSeq.at("v")
    assert p.length == 0 and p.source == "v" and p.target == "v"
    assert p.label() == "v"


def test_path_rejects_edges_that_do_not_compose():
    g = funnel_into_cycle()
    f1, g1 = g.edge("f1"), g.edge("g1")
    with pytest.raises(ValueError):  # f1 leaves 4, not 5
        PathSeq("5", (f1,))
    with pytest.raises(ValueError):  # f1 ends at 1, where g1 does not start
        PathSeq("4", (f1, g1))
    with pytest.raises(ValueError):
        PathSeq.of(())
    with pytest.raises(ValueError):
        PathSeq.at("5").extend(f1)
    assert PathSeq.at("5").extend(g1).extend(f1) == path_in(g, ["g1", "f1"])


# ── classification ────────────────────────────────────────────────────────────


def test_classify_funnel():
    c = classify(funnel_into_cycle())
    assert c.sinks == ()
    assert c.sources == ("5",)
    assert c.regular == ("1", "2", "3", "4", "5")


def test_classify_isolated_vertex():
    c = classify(Graph(("v",), ()))
    assert c.sinks == ("v",) and c.sources == ("v",)
    assert c.regular == ()


def test_classify_arrow():
    c = classify(arrow())
    assert c.sinks == ("2",) and c.regular == ("1",)


@given(graphs())
def test_classify_partitions(g):
    c = classify(g)
    assert sorted(c.regular + c.sinks) == sorted(g.vertices)
    assert not set(c.regular) & set(c.sinks)
    assert set(c.sinks) == {v for v in g.vertices if not g.out_edges(v)}


# ── reachability ──────────────────────────────────────────────────────────────


def test_reaches_funnel():
    g = funnel_into_cycle()
    assert reaches(g, "5", "1")
    assert reaches(g, "1", "1")
    assert not reaches(g, "1", "5")


def test_reaches_unknown_vertex():
    with pytest.raises(ValueError):
        reaches(funnel_into_cycle(), "1", "zz")


@given(graphs(max_vertices=5, max_edges=10))
def test_reaches_matches_matrix_oracle(g):
    oracle = oracle_reaches(g)
    for v in g.vertices:
        for w in g.vertices:
            assert reaches(g, v, w) == oracle(v, w)


# ── closures ──────────────────────────────────────────────────────────────────


def test_hereditary_closure_funnel():
    g = funnel_into_cycle()
    assert hereditary_closure(g, ["1"]) == ("1", "2", "3")
    assert hereditary_closure(g, []) == ()
    assert hereditary_closure(g, ["5"]) == ("1", "2", "3", "4", "5")


def test_saturated_closure_examples():
    assert saturated_closure(arrow(), ["2"]) == ("1", "2")
    assert saturated_closure(arrow(), []) == ()
    assert saturated_closure(triangle(), ["w"]) == ("u", "v", "w")


def test_hs_closure_examples():
    g = funnel_into_cycle()
    assert hs_closure(g, ["1"]) == ("1", "2", "3", "4", "5")
    assert hs_closure(g, g.vertices) == g.vertices
    assert hs_closure(single_loop(), ["v"]) == ("v",)


@settings(max_examples=60)
@given(vertex_subsets(max_vertices=5, max_edges=10))
def test_closures_match_subset_oracle(gx):
    g, xs = gx
    assert set(hereditary_closure(g, xs)) == oracle_closure(g, xs, hereditary=True)
    assert set(saturated_closure(g, xs)) == oracle_closure(g, xs, saturated=True)
    assert set(hs_closure(g, xs)) == oracle_closure(g, xs, hereditary=True, saturated=True)


@given(vertex_subsets())
def test_closures_idempotent_extensive(gx):
    g, xs = gx
    for close in (hereditary_closure, saturated_closure, hs_closure):
        once = close(g, xs)
        assert set(xs) <= set(once)
        assert close(g, once) == once
    assert is_hereditary(g, hereditary_closure(g, xs))
    assert is_saturated(g, saturated_closure(g, xs))


@given(vertex_subsets())
def test_closures_monotone(gx):
    g, xs = gx
    smaller = xs[: len(xs) // 2]
    for close in (hereditary_closure, saturated_closure, hs_closure):
        assert set(close(g, smaller)) <= set(close(g, xs))


# ── cycles without exits and distinguished paths ──────────────────────────────


def test_exitless_cycle_funnel():
    (cyc,) = cycles_without_exits(funnel_into_cycle())
    assert cyc.source == "1"
    assert cyc.edge_names() == ("a", "b", "c")


def test_exitless_cycle_rose_and_loop():
    assert cycles_without_exits(rose2()) == ()
    (cyc,) = cycles_without_exits(single_loop())
    assert cyc.edge_names() == ("e",)


@settings(max_examples=60)
@given(graphs(max_vertices=5, max_edges=8))
def test_exitless_cycles_match_dfs_oracle(g):
    got = {frozenset(c.edge_names()) for c in cycles_without_exits(g)}
    assert got == oracle_exitless_cycles(g)


@given(graphs())
def test_exitless_cycles_disjoint(g):
    seen = set()
    for c in cycles_without_exits(g):
        vs = set(c.vertex_seq())
        assert not vs & seen
        seen |= vs


def test_distinguished_paths_funnel():
    g = funnel_into_cycle()
    at_zero = distinguished_paths(g, 0)
    assert [p.label() for p in at_zero] == ["1", "2", "3"]
    at_one = distinguished_paths(g, 1)
    # sorted by (length, source, edge names): a leaves 1, c leaves 2, b leaves 3
    assert [p.label() for p in at_one] == ["1", "2", "3", "a", "c", "b", "f1", "f2"]


def test_distinguished_paths_rose():
    assert distinguished_paths(rose2(), 3) == ()


# ── restrictions ──────────────────────────────────────────────────────────────


def test_restrict_funnel():
    sub = restrict(funnel_into_cycle(), ["1", "2", "3"])
    assert sub.vertices == ("1", "2", "3")
    assert tuple(e.name for e in sub.edges) == ("a", "b", "c")


def test_restrict_requires_hereditary():
    with pytest.raises(ValueError):
        restrict(funnel_into_cycle(), ["4"])


def test_restrict_whole_graph():
    g = funnel_into_cycle()
    assert restrict(g, g.vertices) == g
    assert restrict(single_loop(), ["v"]) == single_loop()


@given(vertex_subsets())
def test_restrict_closure_stays_inside(gx):
    g, xs = gx
    hs = hereditary_closure(g, xs)
    sub = restrict(g, hs)
    assert all(e.dst in set(hs) for e in sub.edges)


def test_complement_funnel():
    comp = complement_graph(funnel_into_cycle(), ["1", "2", "3"])
    assert comp.vertices == ("4", "5")
    assert tuple(e.name for e in comp.edges) == ("g1",)


def test_complement_degenerate():
    g = funnel_into_cycle()
    assert complement_graph(g, g.vertices) == Graph((), ())
    assert complement_graph(g, []) == g
