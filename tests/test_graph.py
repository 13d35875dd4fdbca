"""Graph foundations: classification, closures, paths, text format.

The oracle here is deliberately dumb: subset enumeration for closures.  The
library answers must match it on random graphs and match the hand-computed
values frozen below.
"""

from __future__ import annotations

import inspect
import random
import re
import time
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import (
    arrow,
    funnel_into_cycle,
    graphs,
    random_graph,
    shaped_multigraph,
    single_loop,
    triangle,
    vertex_subsets,
)
from leavitt.graph import (
    Edge,
    Graph,
    PathSeq,
    _decimal,
    _digits,
    _name_chars,
    _reach,
    _serialized,
    classify,
    fnv1a64,
    graph_hash,
    hereditary_closure,
    hs_closure,
    is_hereditary,
    is_saturated,
    parse_graph,
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


@pytest.mark.parametrize("vertices, edges, message", [
    # the first failure in declaration order wins, whichever check it is
    (("a", "a", "b c"), (), "duplicate vertex 'a'"),
    (("b c", "a", "a"), (), "invalid vertex name 'b c'"),
    (("a", 7), (), "invalid vertex name 7"),
    (("a", ["a"]), (), "invalid vertex name ['a']"),
    (("a",), (("e", "a", "z"), ("e", "a", "a")), "edge 'e': unknown vertex 'z'"),
    (("a",), (("e", "a", "a"), ("e", "z", "a")), "duplicate edge 'e'"),
    (("a",), (("e", "z", "y"),), "edge 'e': unknown vertex 'z'"),
    (("a",), (("e", "a", "y"),), "edge 'e': unknown vertex 'y'"),
    (("a", "a"), (("e!", "a", "a"),), "duplicate vertex 'a'"),
    (("a",), (("e", "a", "a"), (None, "a", "a")), "invalid edge name None"),
    (("ab", ""), (), "invalid vertex name ''"),
    (("a", "b\n"), (), "invalid vertex name 'b\\n'"),
    (("a",), (("e", "a", "a"), ("", "a", "a")), "invalid edge name ''"),
    (("a",), (("e", ["a"], "a"),), "edge 'e': unknown vertex ['a']"),
    (("a",), (("e", "a", ["a"]),), "edge 'e': unknown vertex ['a']"),
])
def test_construction_reports_the_first_failure(vertices, edges, message):
    with pytest.raises(ValueError) as err:
        Graph(vertices, edges)
    assert str(err.value).startswith(message)


_NAME_REFERENCE = re.compile(r"[A-Za-z0-9_.]*\Z")  # the name rule as a regex
_NAME_ALLOWED = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_."
# non-ASCII letters and digits, whitespace, controls and lone surrogates
_NAME_STRANGERS = " \t\n\x00\x7f!-é\u00dfΩЖ中\u0663\U0001d7d8\u00a0\u2003\ud800\udfff"


def test_name_characters_match_the_regex_reference():
    texts = [chr(c) for c in range(0x110000)]  # every code point alone
    rng = random.Random(35)
    for _ in range(20_000):  # names that mix in a stranger now and then
        chars = rng.choices(_NAME_ALLOWED, k=rng.randrange(1, 12))
        if rng.random() < 0.5:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(_NAME_STRANGERS))
        texts.append("".join(chars))
    assert [t for t in texts if _name_chars(t) != bool(_NAME_REFERENCE.match(t))] == []
    # and through both of Graph's paths: the joined fast check and the named one
    v = "v" * 20  # longer than any name drawn above
    for name in texts[0x110000:0x110000 + 2_000]:
        valid = bool(_NAME_REFERENCE.match(name))
        for make in (lambda: Graph((v, name)), lambda: Graph((v,), (Edge(name, v, v),))):
            if valid:
                make()
            else:
                with pytest.raises(ValueError, match="invalid (vertex|edge) name"):
                    make()


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


def test_hash_matches_published_fnv1a64_vectors():
    # move traces record these hashes, so a trace stays replayable only while
    # the function is exactly 64-bit FNV-1a
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8
    line = parse_graph("vertex v1\nvertex v2\nvertex v3\nedge gamma v2 v1\n"
                       "edge delta v1 v2\nedge alpha v2 v3\nedge beta v3 v2\n")
    assert graph_hash(line) == "b2fa9e490635ae24"  # the README's line.txt


def fnv1a64_bytewise(data: bytes) -> int:
    """64-bit FNV-1a as published: one byte per step, masked after each."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) % 2**64
    return h


def test_hash_matches_bytewise_fnv1a64():
    # fnv1a64 steps eight bytes with one mask; lengths 0..17 cover every
    # tail length after zero and after one full step, and two full steps
    rng = random.Random(7)
    for n in range(18):
        for _ in range(20):
            data = bytes(rng.randrange(256) for _ in range(n))
            assert fnv1a64(data) == fnv1a64_bytewise(data), data
    data = rng.randbytes(100_000)
    assert fnv1a64(data) == fnv1a64_bytewise(data)


def test_hash_folds_over_any_split():
    # graph_hash feeds fnv1a64 one piece of text at a time, carrying the hash;
    # cuts fall anywhere in the eight-byte steps, and repeated cuts give empty pieces
    rng = random.Random(13)
    for n in (0, 1, 7, 8, 9, 15, 16, 17, 100, 1001):
        data = rng.randbytes(n)
        whole = fnv1a64(data)
        splits = [[b"", data, b""], [data[:3], b"", data[3:]]]
        for _ in range(30):
            cuts = sorted(rng.randint(0, n) for _ in range(rng.randint(1, 6)))
            splits.append([data[a:b] for a, b in zip([0, *cuts], [*cuts, n])])
        for pieces in splits:
            h = fnv1a64(b"")
            for piece in pieces:
                h = fnv1a64(piece, h)
            assert h == whole, (n, [len(p) for p in pieces])


def test_graph_text_comes_in_bounded_pieces_that_hash_as_the_whole():
    rng = random.Random(31)
    drawn = [random_graph(rng, 600, 1500) for _ in range(12)]
    drawn += [random_graph(rng) for _ in range(50)] + [Graph(), Graph(["v"])]
    for g in drawn:
        pieces = list(_serialized(g))
        text = serialize_graph(g)
        assert "".join(pieces) == text
        assert all(0 < piece.count("\n") <= 512 for piece in pieces)
        assert graph_hash(g) == format(fnv1a64(text.encode("utf-8")), "016x")
    assert any(len(list(_serialized(g))) > 2 for g in drawn)
    assert serialize_graph(Graph()) == "" and list(_serialized(Graph())) == []


def test_decimal_and_digits_round_trip_at_any_length():
    # str() and int() refuse more than 4,300 digits by default; the chunks are 600
    for length in (1, 599, 600, 601, 1200, 4301, 5000):
        for lead in "19":
            n = int(lead) * 10 ** (length - 1) + (10 ** (length - 1) - 1) // 7
            text = _digits(n)
            assert len(text) == length
            assert _decimal(text) == n and _decimal("-" + text) == -n
    assert _digits(0) == "0" and _decimal("0") == 0 and _decimal("-0") == 0
    assert _decimal("00" + "5" * 700) == _decimal("5" * 700)
    for text in ("", "-", "1" * 700 + "x", "-" + "1" * 700 + "\u0663"):
        with pytest.raises(ValueError, match="not a decimal integer"):
            _decimal(text)


# ── paths ─────────────────────────────────────────────────────────────────────


def test_path_composition_checked():
    g = funnel_into_cycle()
    p = PathSeq("5", (g.edge("g1"), g.edge("f1")))
    assert p.source == "5" and p.target == "1" and len(p.edges) == 2
    assert p.label() == "g1.f1"
    with pytest.raises(ValueError):
        PathSeq("4", (g.edge("f1"), g.edge("g1")))
    with pytest.raises(ValueError, match=r"^unknown edge 'zz'$"):
        g.edge("zz")


def test_trivial_path():
    p = PathSeq("v")
    assert p.edges == () and p.source == "v" and p.target == "v"
    assert p.label() == "v"


def test_path_rejects_edges_that_do_not_compose():
    g = funnel_into_cycle()
    f1, g1 = g.edge("f1"), g.edge("g1")
    with pytest.raises(ValueError):  # f1 leaves 4, not 5
        PathSeq("5", (f1,))
    with pytest.raises(ValueError):  # f1 ends at 1, where g1 does not start
        PathSeq("4", (f1, g1))
    with pytest.raises(ValueError):
        PathSeq("5").extend(f1)
    assert PathSeq("5").extend(g1).extend(f1) == PathSeq("5", (g1, f1))
    # a grown path checks its new joint: g1 leaves 5, not the target 4
    with pytest.raises(ValueError, match="does not start where the path ends"):
        PathSeq("5", (g1,)).extend(g1)
    # a prefix keeps the range of its own last edge
    assert PathSeq("5", (g1, f1)).drop_last() == PathSeq("5", (g1,))
    assert PathSeq("5", (g1, f1)).drop_last().target == "4"
    assert PathSeq("5", (g1,)).drop_last() == PathSeq("5")
    with pytest.raises(ValueError, match=r"^cannot shorten a length-0 path$"):
        PathSeq("5").drop_last()


def test_path_make_and_replace_check_the_edges():
    # namedtuple's _make and _replace build through PathSeq.__new__ too
    g = funnel_into_cycle()
    f1, f2, g1 = g.edge("f1"), g.edge("f2"), g.edge("g1")
    p = PathSeq("4", (f1,))
    with pytest.raises(ValueError, match="edge 'g1' does not start where the path ends"):
        p._replace(edges=(f1, g1))
    # the range is read off the edges, so no field is left stale and the
    # constructor takes no range to check
    assert PathSeq._fields == ("source", "edges")
    assert list(inspect.signature(PathSeq.__new__).parameters) == ["cls", "source", "edges"]
    assert p._replace(edges=()) == PathSeq("4")
    assert p._replace(edges=(f2,)) == PathSeq("4", (f2,))
    assert p._replace(source="5", edges=(g1, f1)) == PathSeq("5", (g1, f1))
    assert PathSeq._make(("5", (g1,))) == PathSeq("5").extend(g1)


# ── classification ────────────────────────────────────────────────────────────


def test_classify_funnel():
    c = classify(funnel_into_cycle())
    assert c.sinks == ()
    assert c.sources == ("5",)


def test_classify_isolated_vertex():
    c = classify(Graph(("v",), ()))
    assert c.sinks == ("v",) and c.sources == ("v",)


def test_classify_arrow():
    c = classify(arrow())
    assert c.sinks == ("2",) and c.sources == ("1",)


@given(graphs())
def test_classify_partitions(g):
    c = classify(g)
    assert set(c.sinks) == {v for v in g.vertices if not g.out_edges(v)}
    assert set(c.sources) == {v for v in g.vertices if not g.in_edges(v)}


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
    # 1 emits its only edge into {2}, so {2} is not saturated until 1 joins
    assert not is_saturated(arrow(), ["2"])
    assert is_saturated(arrow(), ["1", "2"])


def test_vertex_sets_report_their_least_unknown_name():
    g = funnel_into_cycle()
    xs = frozenset(["1", "zz", "q7", "q1", "x", "q3", "y9", "q2"])
    for check in (is_hereditary, is_saturated, hereditary_closure, saturated_closure, hs_closure):
        with pytest.raises(ValueError, match=r"^unknown vertex 'q1'$"):
            check(g, xs)


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
    assert is_hereditary(g, xs) == hereditary_by_definition(g, set(xs))
    assert is_saturated(g, xs) == saturated_by_definition(g, set(xs))


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


def test_closures_of_a_long_chain_in_bounded_time():
    # v0 -> v1 -> ... -> v4999: saturating the sink end adds one vertex per
    # sweep of the graph, so a closure that rescans the graph is quadratic
    n = 5000
    names = tuple(f"v{i:04d}" for i in range(n))
    g = Graph(names, tuple(Edge(f"e{i}", names[i], names[i + 1]) for i in range(n - 1)))
    start = time.perf_counter()
    assert saturated_closure(g, [names[-1]]) == names
    assert hs_closure(g, [names[-1]]) == names
    assert time.perf_counter() - start < 1.0


def reference_bfs(g: Graph, start: str, backward: bool) -> dict[str, int]:
    """Distances from one start, one layer of the edge list at a time."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for e in g.edges:
            src, dst = (e.dst, e.src) if backward else (e.src, e.dst)
            if src == u and dst not in dist:
                dist[dst] = dist[u] + 1
                queue.append(dst)
    return dist


def test_reach_matches_per_start_reference_bfs():
    rng = random.Random(61)
    for _ in range(300):
        g = shaped_multigraph(rng)
        starts = rng.sample(g.vertices, rng.randint(0, min(3, len(g.vertices))))
        for backward in (False, True):
            expected: dict[str, int] = {}
            for s in starts:
                for v, d in reference_bfs(g, s, backward).items():
                    expected[v] = min(d, expected.get(v, d))
            assert _reach(g, starts, backward) == expected
