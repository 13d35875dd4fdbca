"""Directed forests and the corner graphs they cut out.

The two worked reproductions (a two-way line rooted at its middle, and a
loops-and-chords graph rooted at the junction) freeze every vertex, edge,
family element, and weight.  Random no-sink graphs check the structural
invariant that corners of sink-free hosts stay sink-free.
"""

from __future__ import annotations

import hashlib
import random
import time
from itertools import combinations

import pytest

from conftest import k0_data, loops_and_chords, random_graph, rose2, triangle, two_way_line
from leavitt.algebra import (
    degree,
    equals,
    format_element,
    format_family,
    parse_family,
    verify_ck_family,
)
from leavitt.corners import Forest, build_forest, corner_family, corner_weights, t_corner
from leavitt.graph import Edge, Graph, classify, hereditary_closure, hs_closure, serialize_graph
from leavitt.moves import attach_head, matrix_graph


# ── forests ───────────────────────────────────────────────────────────────────


def test_build_forest_two_way_line():
    g = two_way_line()
    t = build_forest(g, ["v2"])
    assert t.roots == ("v2",)
    assert tuple(e.name for e in t.tree_edges) == ("alpha", "delta")
    assert t.vertices == ("v1", "v2", "v3")
    assert t.tau("v2").label() == "v2"
    assert t.tau("v1").label() == "delta"
    assert t.tau("v3").label() == "alpha"


def test_build_forest_loops_and_chords():
    g = loops_and_chords()
    t = build_forest(g, ["2"])
    assert tuple(e.name for e in t.tree_edges) == ("alpha", "beta")
    assert t.vertices == ("2", "3", "4")
    assert t.tau("4").label() == "alpha.beta"


def test_build_forest_spans_hereditary_closure():
    rng = random.Random(37)
    for _ in range(60):
        g = random_graph(rng, max_vertices=7, max_edges=14)
        if len(g.vertices) < 2:
            continue
        xs = rng.sample(g.vertices, rng.randint(1, len(g.vertices) - 1))
        assert set(build_forest(g, xs).vertices) == set(hereditary_closure(g, xs))


def scan_forest_edges(g: Graph, roots) -> tuple[Edge, ...]:
    """The reference greedy search: rescan every edge for each edge picked."""
    reached = set(roots)
    chosen = []
    while candidates := [e for e in g.edges if e.src in reached and e.dst not in reached]:
        e = min(candidates, key=lambda e: e.name)
        chosen.append(e)
        reached.add(e.dst)
    return tuple(sorted(chosen, key=lambda e: e.name))


def test_build_forest_matches_scan_reference():
    rng = random.Random(59)
    for _ in range(150):
        g = random_graph(rng, max_vertices=9, max_edges=20)
        if len(g.vertices) < 2:
            continue
        xs = rng.sample(g.vertices, rng.randint(1, len(g.vertices) - 1))
        assert build_forest(g, xs).tree_edges == scan_forest_edges(g, xs), serialize_graph(g)


def test_build_forest_input_checks():
    g = two_way_line()
    with pytest.raises(ValueError):
        build_forest(g, [])
    with pytest.raises(ValueError):
        build_forest(g, g.vertices)
    with pytest.raises(ValueError):
        build_forest(g, ["nope"])


def test_forest_validation():
    g = two_way_line()
    gamma, delta, alpha = g.edge("gamma"), g.edge("delta"), g.edge("alpha")
    with pytest.raises(ValueError):  # v2 gets two incoming tree edges
        Forest(g, ("v1", "v3"), (gamma, g.edge("beta")))
    with pytest.raises(ValueError):  # root v1 has an incoming tree edge
        Forest(g, ("v1", "v2"), (delta,))
    with pytest.raises(ValueError):  # v1 is rootless
        Forest(g, ("v2",), (gamma,))
    with pytest.raises(ValueError):  # gamma/delta form a cycle
        Forest(g, (), (gamma, delta))
    beside = Graph(("r", "a", "b", "c"),
                   (Edge("t", "r", "a"), Edge("u", "b", "c"), Edge("w", "c", "b")))
    with pytest.raises(ValueError, match="cycle"):  # b <-> c beside the tree r -> a
        Forest(beside, ("r",), beside.edges)
    for edges, message in (
            ((Edge("alpha", "v1", "v2"),), "tree edge 'alpha' is not an edge of the host"),
            ((Edge("zz", "v2", "v1"),), "unknown edge 'zz'"),
            ((delta, alpha, alpha), "duplicate tree edge 'alpha'")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Forest(g, ("v2",), edges)
    with pytest.raises(ValueError, match="^duplicate root$"):
        Forest(g, ("v2", "v2"), (delta, alpha))
    ok = Forest(g, ("v2",), (delta, alpha))
    assert ok.tau("v1").label() == "delta"
    with pytest.raises(ValueError, match="^vertex 'nope' is not in the forest$"):
        ok.tau("nope")
    # plain (name, src, dst) tuples are read as edges
    assert Forest(g, ("v2",), [tuple(delta), tuple(alpha)]) == ok


# ── corner graphs ─────────────────────────────────────────────────────────────


def test_corner_two_way_line_frozen():
    g = two_way_line()
    t = build_forest(g, ["v2"])
    c = t_corner(g, t)
    assert c.vertices == ("v1", "v3")
    assert [(e.name, e.src, e.dst) for e in c.edges] == [
        ("gamma_v1", "v1", "v1"),
        ("gamma_v3", "v1", "v3"),
        ("beta_v1", "v3", "v1"),
        ("beta_v3", "v3", "v3"),
    ]


def test_corner_loops_and_chords_frozen():
    g = loops_and_chords()
    t = build_forest(g, ["2"])
    c = t_corner(g, t)
    assert c.vertices == ("2", "4")
    assert [(e.name, e.src, e.dst) for e in c.edges] == [
        ("delta_4", "2", "4"),
        ("gamma_4", "4", "4"),
    ]
    assert classify(c).sources == ("2",)


def naive_corner(g: Graph, roots) -> Graph:
    """The reference corner: the kept rule, "below" as a fixpoint over the
    tree edges, and the pairs in host order."""
    t = build_forest(g, roots)
    tree = set(t.tree_edges)
    kept = [v for v in t.vertices if not g.out_edges(v) or not tree.issuperset(g.out_edges(v))]
    edges = []
    for e in g.edges:
        if e.src not in t.vertex_set or e in tree:
            continue
        below = {e.dst}
        while more := {f.dst for f in tree if f.src in below} - below:
            below |= more
        edges += [Edge(f"{e.name}_{u}", e.src, u) for u in kept if u in below]
    return Graph(kept, edges)


def test_corner_matches_naive_reference():
    rng = random.Random(47)
    checked = 0
    while checked < 150:
        g = random_graph(rng, max_vertices=9, max_edges=20)
        if len(g.vertices) < 2:
            continue
        xs = rng.sample(g.vertices, rng.randint(1, len(g.vertices) - 1))
        assert t_corner(g, build_forest(g, xs)) == naive_corner(g, xs), serialize_graph(g)
        checked += 1


def test_corner_of_a_long_chain_in_bounded_time():
    # a 6,000-vertex chain with an edge from every vertex to the last one:
    # each of those edges has the last vertex alone below its range
    n = 6000
    vs = tuple(f"v{i:04d}" for i in range(n))
    g = Graph(vs, tuple(Edge(f"a{i:04d}", vs[i], vs[i + 1]) for i in range(n - 1))
              + tuple(Edge(f"b{i:04d}", v, vs[-1]) for i, v in enumerate(vs)))
    start = time.perf_counter()
    t = build_forest(g, [vs[0]])
    c = t_corner(g, t)
    assert time.perf_counter() - start < 1.0
    assert len(t.tree_edges) == n - 1  # the forest is the whole chain
    assert c.vertices == vs
    assert [(e.src, e.dst) for e in c.edges] == [(v, vs[-1]) for v in vs]


def test_corner_bytes_pinned():
    # digest of every corner graph (or error) of seeded sink-free graphs at
    # random roots, recorded before corners built their edges in bulk
    rng = random.Random(61)
    digest = hashlib.sha256()
    for _ in range(200):
        g = random_graph(rng, max_vertices=9, max_edges=20, no_sinks=True)
        roots = rng.sample(g.vertices, rng.randint(1, max(1, len(g.vertices) - 1)))
        try:
            text = serialize_graph(t_corner(g, build_forest(g, roots)))
        except ValueError as exc:
            text = f"error: {exc}\n"
        digest.update(text.encode("utf-8") + b"\0")
    assert digest.hexdigest() == (
        "9843b1c18e672d78b3d55e80c78bed0140bf9b7391526d3b27915e61485cbd41")


def test_corner_rejects_foreign_forest():
    t = build_forest(two_way_line(), ["v2"])
    for use in (t_corner, corner_family, corner_weights):
        with pytest.raises(ValueError, match="^the forest belongs to a different host graph$"):
            use(loops_and_chords(), t)


def test_corner_of_cycle_is_loop():
    g = triangle()
    c = t_corner(g, build_forest(g, ["u"]))
    assert c.vertices == ("v",)
    assert [(e.name, e.src, e.dst) for e in c.edges] == [("alpha_v", "v", "v")]


def test_corner_no_sink_invariant_exhaustive():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, max_vertices=7, max_edges=14, no_sinks=True)
        for size in (1, 2):
            for xs in combinations(g.vertices, size):
                if set(xs) == set(g.vertices):
                    continue
                c = t_corner(g, build_forest(g, xs))
                assert classify(c).sinks == (), (serialize_graph(g), xs)


def test_full_corner_preserves_k_data():
    rng = random.Random(29)
    done = 0
    while done < 25:
        g = random_graph(rng, max_vertices=6, max_edges=12, no_sinks=True)
        xs = (rng.choice(g.vertices),)
        if set(xs) == set(g.vertices) or set(hs_closure(g, xs)) != set(g.vertices):
            continue
        c = t_corner(g, build_forest(g, xs))
        assert k0_data(c) == k0_data(g)
        done += 1


# ── corner families and weights ───────────────────────────────────────────────


def test_corner_family_two_way_line_frozen():
    g = two_way_line()
    t = build_forest(g, ["v2"])
    fam = corner_family(g, t)
    shown = {k: format_element(v) for k, v in fam.vertex_images.items()}
    shown |= {k: format_element(v) for k, v in fam.edge_images.items()}
    assert shown == {
        "v1": "delta ; delta",
        "v3": "alpha ; alpha",
        "gamma_v1": "delta.gamma.delta ; delta",
        "gamma_v3": "delta.gamma.alpha ; alpha",
        "beta_v1": "alpha.beta.delta ; delta",
        "beta_v3": "alpha.beta.alpha ; alpha",
    }


def test_corner_family_loops_and_chords_frozen():
    g = loops_and_chords()
    t = build_forest(g, ["2"])
    fam = corner_family(g, t)
    assert format_element(fam.vertex_images["2"]) == "2 - alpha ; alpha"
    assert format_element(fam.vertex_images["4"]) == "alpha.beta ; alpha.beta"
    assert format_element(fam.edge_images["delta_4"]) == "delta ; alpha.beta"
    assert format_element(fam.edge_images["gamma_4"]) == "alpha.beta.gamma ; alpha.beta"


def test_corner_families_verify():
    for g, roots in ((two_way_line(), ["v2"]), (loops_and_chords(), ["2"])):
        t = build_forest(g, roots)
        report = verify_ck_family(t_corner(g, t), corner_family(g, t), g)
        assert report.ok, report.failures


def test_corner_edge_names_that_collide_are_rejected():
    # both loops at r reach z and y_z: x_y with u = z and x with u = y_z
    # both name their corner edge x_y_z
    g = Graph(("r", "z", "y_z"), (Edge("a", "r", "z"), Edge("b", "r", "y_z"),
                                  Edge("c", "z", "r"), Edge("d", "y_z", "r"),
                                  Edge("x", "r", "r"), Edge("x_y", "r", "r")))
    with pytest.raises(ValueError, match="duplicate edge 'x_y_z'"):
        t_corner(g, build_forest(g, ["r"]))


def test_corner_projections_orthogonal():
    g = two_way_line()
    t = build_forest(g, ["v2"])
    fam = corner_family(g, t)
    q1, q3 = fam.vertex_images["v1"], fam.vertex_images["v3"]
    assert equals(g, q1 * q1, q1)
    assert equals(g, q3 * q3, q3)
    assert not (q1 * q3)


def test_corner_weights_frozen():
    g = two_way_line()
    assert corner_weights(g, build_forest(g, ["v2"])) == {
        "gamma": 0,
        "delta": 1,
        "alpha": 1,
        "beta": 0,
    }
    g2 = loops_and_chords()
    assert corner_weights(g2, build_forest(g2, ["2"])) == {
        "lp": 1,
        "f": 1,
        "alpha": 1,
        "beta": 1,
        "delta": 3,
        "gamma": 1,
    }


def test_corner_weights_of_a_long_chain_in_bounded_time():
    # a 4,000-vertex chain with an edge back to the root from every vertex:
    # the forest is the whole chain, so tau(v) grows to 3,999 edges
    n = 4000
    vs = tuple(f"v{i:04d}" for i in range(n))
    g = Graph(vs, tuple(Edge(f"c{i:04d}", vs[i], vs[i + 1]) for i in range(n - 1))
              + tuple(Edge(f"b{i:04d}", v, vs[0]) for i, v in enumerate(vs)))
    start = time.perf_counter()
    t = build_forest(g, [vs[0]])
    w = corner_weights(g, t)
    assert time.perf_counter() - start < 1.0
    assert len(t.tree_edges) == n - 1
    for i in range(0, n, 97):
        e = g.edge(f"b{i:04d}")
        assert w[e.name] == len(t.tau(e.dst).edges) - len(t.tau(e.src).edges) + 1 == 1 - i


def test_corner_weights_grade_family():
    for g, roots in ((two_way_line(), ["v2"]), (loops_and_chords(), ["2"])):
        t = build_forest(g, roots)
        fam = corner_family(g, t)
        w = corner_weights(g, t)
        for img in fam.vertex_images.values():
            assert degree(g, img, w) == 0
        for img in fam.edge_images.values():
            assert degree(g, img, w) == 1


# ── matrix-form corners ───────────────────────────────────────────────────────
#
# L(M_nE) is M_n(L(E)), so the corners of M_n(L(E)), among them those cut
# by a full idempotent of multiplicities m(v) <= n, are corners of
# matrix_graph(g, n): the ``move matrix`` and ``corner`` commands in turn.


def matrix_corner(g: Graph, n: int, roots) -> Graph:
    mn = matrix_graph(g, n)
    return t_corner(mn, build_forest(mn, roots))


def heads_corner(g: Graph, m: dict[str, int]) -> Graph:
    """The corner of matrix_graph(g, max(m) + 1) cut at each vertex v and its
    first m(v) - 1 head vertices: a hereditary root set, so a trivial forest."""
    picked = [f"{v}.h{i}" if i else v for v in g.vertices for i in range(m[v])]
    return matrix_corner(g, max(m.values()) + 1, picked)


def renamed(g: Graph) -> Graph:
    """``g`` with each edge e renamed e_<target>, as a trivial forest's corner names it."""
    return Graph(g.vertices, tuple(Edge(f"{e.name}_{e.dst}", e.src, e.dst) for e in g.edges))


def test_heads_corner_identity_multiplicities():
    g = rose2()
    assert heads_corner(g, {"v": 1}) == renamed(g)


def test_heads_corner_single_loop():
    g = Graph(("v",), (Edge("e", "v", "v"),))
    assert heads_corner(g, {"v": 3}) == renamed(attach_head(g, "v", 2))


def test_heads_corner_k_data():
    g = loops_and_chords()
    out = heads_corner(g, {"1": 2, "2": 1, "3": 3, "4": 2})
    assert k0_data(out) == k0_data(g)


def test_heads_corner_is_matrix_form_corner():
    # the corner of every n x n matrix form with n >= max(m) under the
    # trivial forest on the picked vertices
    rng = random.Random(47)
    for _ in range(20):
        g = random_graph(rng, max_vertices=5, max_edges=10, no_sinks=True)
        m = {v: rng.randint(1, 3) for v in g.vertices}
        n = max(m.values()) + rng.randint(0, 1)
        mn = matrix_graph(g, n)
        picked = set(g.vertices) | {f"{v}.h{i}" for v in g.vertices for i in range(1, m[v])}
        roots = tuple(v for v in mn.vertices if v in picked)
        corner = t_corner(mn, Forest(mn, roots, ()))
        assert serialize_graph(corner) == serialize_graph(heads_corner(g, m))


def test_heads_corner_is_iterated_heads():
    rng = random.Random(59)
    for _ in range(40):
        g = random_graph(rng, max_vertices=5, max_edges=10, no_sinks=True)
        m = {v: rng.randint(1, 3) for v in g.vertices}
        want = g
        for v in g.vertices:
            if m[v] > 1:
                want = attach_head(want, v, m[v] - 1)
        assert serialize_graph(heads_corner(g, m)) == serialize_graph(renamed(want))


def test_matrix_corner_core_roots():
    g = rose2()
    for n in (2, 3, 4):
        c = matrix_corner(g, n, ["v"])
        assert c.vertices == ("v",)
        assert [(e.name, e.src, e.dst) for e in c.edges] == [
            ("e_v", "v", "v"),
            ("f_v", "v", "v"),
        ]


def test_matrix_corner_deep_head_collapses():
    c = matrix_corner(rose2(), 3, ["v.h2"])
    assert c.vertices == ("v",)
    assert sorted(e.name for e in c.edges) == ["e_v", "f_v"]


def test_matrix_corner_mixed_roots():
    c = matrix_corner(rose2(), 3, ["v", "v.h1"])
    assert c.vertices == ("v", "v.h1")
    assert [(e.name, e.src, e.dst) for e in c.edges] == [
        ("e_v", "v", "v"),
        ("f_v", "v", "v"),
        ("v.e1_v", "v.h1", "v"),
    ]


def test_matrix_corner_independent_of_size():
    rng = random.Random(53)
    done = 0
    while done < 40:
        g = random_graph(rng, max_vertices=5, max_edges=10)
        n = rng.randint(1, 3)
        mn = matrix_graph(g, n)
        if len(mn.vertices) < 2:
            continue
        xs = rng.sample(mn.vertices, rng.randint(1, min(3, len(mn.vertices) - 1)))
        assert serialize_graph(matrix_corner(g, n, xs)) == serialize_graph(matrix_corner(g, n + 1, xs))
        done += 1


def test_matrix_corner_errors():
    with pytest.raises(ValueError, match="unknown vertex 'v.h2'"):
        matrix_corner(rose2(), 2, ["v.h2"])
    with pytest.raises(ValueError, match="proper subset"):
        matrix_corner(rose2(), 1, ["v"])
    with pytest.raises(ValueError, match="nonempty"):
        matrix_corner(rose2(), 2, [])
    with pytest.raises(ValueError, match="positive integer"):
        matrix_graph(rose2(), 0)


def test_matrix_form_corners_verify_have_no_sinks_and_keep_k0():
    # the paper's closing corollary: a corner of the matrix form of a
    # sink-free graph is again an algebraic Cuntz-Krieger algebra, and a full
    # corner has the K-theory of the graph itself
    rng = random.Random(61)
    full = 0
    for _ in range(300):
        g = random_graph(rng, max_vertices=5, max_edges=10, no_sinks=True)
        mn = matrix_graph(g, rng.choice((2, 3)))
        roots = rng.sample(mn.vertices, rng.randint(1, min(3, len(mn.vertices) - 1)))
        t = build_forest(mn, roots)
        corner = t_corner(mn, t)
        # the text round trip that ``corner --emit-family`` and ``verify`` make
        target, family = parse_family(format_family(corner, corner_family(mn, t)), mn)
        report = verify_ck_family(target, family, mn)
        assert report.ok, (serialize_graph(g), roots, report.failures)
        assert classify(corner).sinks == (), (serialize_graph(g), roots)
        if set(hs_closure(mn, roots)) == set(mn.vertices):
            assert k0_data(corner) == k0_data(g), (serialize_graph(g), roots)
            full += 1
    assert full > 200
