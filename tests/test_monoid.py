"""Graph monoid elements: rewriting, bounded equivalence search, fullness."""

from __future__ import annotations

import random
import time
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import arrow, graphs, looped_pair, random_graph, rose2, single_loop, triangle
from leavitt.graph import Edge, Graph, _validated, classify
from leavitt.monoid import (
    Decision,
    MonoidElement,
    _relation,
    equivalent,
    expand,
    format_monoid,
    is_full,
    parse_monoid,
    rebalance_full,
)


def disjoint_loops() -> Graph:
    return Graph(("a", "b"), (Edge("la", "a", "a"), Edge("lb", "b", "b")))


def random_looped_graph(rng: random.Random, every_vertex: bool) -> Graph:
    """A random graph with loops added at some vertices (at every one when
    ``every_vertex``), so that loops sit next to other out-edges."""
    g = random_graph(rng, max_vertices=5, max_edges=8)
    looped = [v for v in g.vertices if every_vertex or rng.random() < 0.5]
    loops = tuple(Edge(f"l{v}", v, v) for v in looped)
    return Graph(g.vertices, g.edges + loops)


def random_element(rng: random.Random, g: Graph) -> MonoidElement:
    k = rng.randint(0, 3)
    return MonoidElement.of({rng.choice(g.vertices): rng.randint(1, 2) for _ in range(k)})


# ── reference implementations, stepping with expand and contract ──────────────


def contract(g: Graph, m: MonoidElement, v: str) -> MonoidElement:
    """Inverse of :func:`expand`: swallow the out-edge ranges of ``v`` back.
    The reference semantics of the move the search takes backwards."""
    g.require_vertex(v)
    _validated(g, m.support)
    need = _relation(g, v)
    c = Counter(dict(m.counts))
    if any(c[w] < k for w, k in need.items()):
        raise ValueError(f"the out-edge ranges of {v!r} are not contained in the element")
    c.subtract(need)
    c[v] += 1
    return MonoidElement.of(c)


def reference_equivalent(g: Graph, a: MonoidElement, b: MonoidElement,
                         step_bound: int, size_bound: int) -> Decision:
    """Bidirectional breadth-first search over ``MonoidElement``s."""

    def neighbours(m: MonoidElement) -> list[MonoidElement]:
        out = []
        for v in g.vertices:
            if not g.out_edges(v):
                continue
            if m.get(v) >= 1:
                out.append(expand(g, m, v))
            need = {}
            for e in g.out_edges(v):
                need[e.dst] = need.get(e.dst, 0) + 1
            if all(m.get(w) >= k for w, k in need.items()):
                out.append(contract(g, m, v))
        return [n for n in out if n.total <= size_bound]

    if a == b:
        return Decision(True, "steps 0")
    seen = ({a: 0}, {b: 0})
    frontier = [[a], [b]]
    depth = [0, 0]
    while depth[0] + depth[1] < step_bound and (frontier[0] or frontier[1]):
        side = 0 if frontier[0] and (depth[0] <= depth[1] or not frontier[1]) else 1
        grown = []
        for m in frontier[side]:
            for n in neighbours(m):
                if n not in seen[side]:
                    seen[side][n] = depth[side] + 1
                    grown.append(n)
        depth[side] += 1
        frontier[side] = grown
        common = seen[0].keys() & seen[1].keys()
        if common:
            return Decision(True, f"steps {min(seen[0][s] + seen[1][s] for s in common)}")
    exhausted = not frontier[0] and not frontier[1]
    return Decision(None, "exhausted true" if exhausted else "exhausted false")


def reference_rebalance(g: Graph, m: MonoidElement) -> MonoidElement:
    """For each uncovered vertex in name order, expand the least covered
    vertex that reaches it along the lexicographically least shortest path."""

    def reaches(v: str, w: str) -> bool:
        seen, queue = {v}, deque([v])
        while queue:
            u = queue.popleft()
            for e in g.out_edges(u):
                if e.dst not in seen:
                    seen.add(e.dst)
                    queue.append(e.dst)
        return w in seen

    cur = m
    for w in sorted(g.vertices):
        if cur.get(w) >= 1:
            continue
        at = next(u for u in cur.support if reaches(u, w))
        dist, queue = {w: 0}, deque([w])
        while queue:
            u = queue.popleft()
            for e in g.in_edges(u):
                if e.src not in dist:
                    dist[e.src] = dist[u] + 1
                    queue.append(e.src)
        while at != w:
            step = min(e.dst for e in g.out_edges(at) if dist.get(e.dst) == dist[at] - 1)
            cur = expand(g, cur, at)
            at = step
    return cur


# ── elements and text form ────────────────────────────────────────────────────


def test_element_basics():
    m = MonoidElement.of({"b": 2, "a": 1, "c": 0})
    assert m.counts == (("a", 1), ("b", 2))
    assert m.support == ("a", "b")
    assert m.total == 3
    assert m.get("c") == 0
    assert m and not MonoidElement.of({})
    with pytest.raises(ValueError):
        MonoidElement((("a", 1), ("a", 2)))
    with pytest.raises(ValueError):
        MonoidElement((("a", -1),))


def test_element_rejects_non_integer_multiplicities():
    # a multiplicity is never truncated: 2.5 used to become 2
    for k in (2.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="must be integers"):
            MonoidElement([("v", k)])
    assert MonoidElement([("v", 2)]).counts == (("v", 2),)
    with pytest.raises(ValueError, match="duplicate vertex"):
        MonoidElement([("v", 1), ("v", "x")])


def test_parse_format_round_trip():
    g = rose2()
    assert parse_monoid(g, "0") == MonoidElement.of({})
    assert parse_monoid(g, "") == MonoidElement.of({})
    assert parse_monoid(g, "v:2 v:3") == MonoidElement.of({"v": 5})
    assert format_monoid(MonoidElement.of({})) == "0"
    assert format_monoid(MonoidElement.of({"v": 5})) == "v:5"
    with pytest.raises(ValueError):
        parse_monoid(g, "v")
    with pytest.raises(ValueError):
        parse_monoid(g, "v:x")
    with pytest.raises(ValueError, match="nonnegative"):
        parse_monoid(g, "v:-1")
    for mult in ("+2", "1_0", "\u0661", "\uff12"):  # all read by int()
        with pytest.raises(ValueError, match="must be an integer"):
            parse_monoid(g, f"v:{mult}")
    with pytest.raises(ValueError):
        parse_monoid(g, "w:1")


# ── the defining relation ─────────────────────────────────────────────────────


def test_expand_examples():
    assert expand(rose2(), MonoidElement.of({"v": 1}), "v") == MonoidElement.of({"v": 2})
    g = single_loop()
    assert expand(g, MonoidElement.of({"v": 1}), "v") == MonoidElement.of({"v": 1})
    t = triangle()
    assert expand(t, MonoidElement.of({"v": 1}), "v") == MonoidElement.of({"u": 1})


def test_expand_errors():
    with pytest.raises(ValueError, match="not in the support"):
        expand(triangle(), MonoidElement.of({"v": 1}), "u")
    with pytest.raises(ValueError, match="singular"):
        expand(arrow(), MonoidElement.of({"2": 1}), "2")


def test_contract_inverts_expand():
    g = rose2()
    assert contract(g, MonoidElement.of({"v": 2}), "v") == MonoidElement.of({"v": 1})
    with pytest.raises(ValueError, match="not contained"):
        contract(g, MonoidElement.of({"v": 1}), "v")


@settings(max_examples=60)
@given(graphs(), st.data())
def test_expand_contract_round_trip(g, data):
    regular = [v for v in g.vertices if g.out_edges(v)]
    if not regular:
        return
    v = data.draw(st.sampled_from(regular))
    extra = data.draw(st.dictionaries(st.sampled_from(g.vertices), st.integers(0, 3), max_size=3))
    m = MonoidElement.of({v: 1} | {u: k for u, k in extra.items() if u != v})
    assert contract(g, expand(g, m, v), v) == m


# ── bounded equivalence search ────────────────────────────────────────────────


def test_equivalent_trivial_and_one_step():
    g = rose2()
    a = MonoidElement.of({"v": 1})
    assert equivalent(g, a, a, 1, 1) == Decision(True, "steps 0")
    assert equivalent(g, a, MonoidElement.of({"v": 2}), 5, 50) == Decision(True, "steps 1")


def test_equivalent_exhausts_single_loop():
    g = single_loop()
    out = equivalent(g, MonoidElement.of({"v": 1}), MonoidElement.of({"v": 2}), 10, 100)
    assert out == Decision(None, "exhausted true")


def test_decisions_that_differ_never_compare_equal():
    # 1 == True and 0 == False, so a step count and a flag alone would compare equal
    answers = [Decision(True, "steps 1"), Decision(None, "exhausted true"),
               Decision(True, "steps 0"), Decision(None, "exhausted false")]
    assert Decision(True, "steps 1") != Decision(None, "exhausted true")
    assert Decision(True, "steps 0") != Decision(None, "exhausted false")
    assert Decision(True, "steps 1") != Decision(True, "steps 2")
    assert len(set(answers)) == 4


def test_equivalent_bound_checks():
    g = rose2()
    a = MonoidElement.of({"v": 1})
    for bad in (0, -1, True, 2.5, float("inf")):  # bool and float are refused, not read as numbers
        with pytest.raises(ValueError, match="bounds must be integers of at least 1"):
            equivalent(g, a, a, bad, 5)
        with pytest.raises(ValueError, match="bounds must be integers of at least 1"):
            equivalent(g, a, a, 5, bad)


def test_equivalent_reports_unexhausted_cutoff():
    g = rose2()
    out = equivalent(g, MonoidElement.of({"v": 1}), MonoidElement.of({"v": 5}), 1, 2)
    assert out == Decision(None, "exhausted false")


def test_equivalent_symmetric_steps():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng, max_vertices=4, max_edges=8, no_sinks=True)
        a = MonoidElement.of({rng.choice(g.vertices): rng.randint(1, 2)})
        b = MonoidElement.of({rng.choice(g.vertices): rng.randint(1, 2)})
        fwd = equivalent(g, a, b, 4, 40)
        rev = equivalent(g, b, a, 4, 40)
        if fwd.answer:
            assert fwd == rev


def random_walk(rng: random.Random, g: Graph, m: MonoidElement, moves: int) -> MonoidElement:
    """``m`` after up to ``moves`` random expand or contract moves."""
    for _ in range(moves):
        v = rng.choice(g.vertices)
        try:
            m = rng.choice((expand, contract))(g, m, v)
        except ValueError:
            pass
    return m


def expanded(rng: random.Random, g: Graph, m: MonoidElement, moves: int) -> MonoidElement:
    """``m`` after up to ``moves`` expansions, each of which changes it."""
    for _ in range(moves):
        movable = [v for v in m.support if any(e.dst != v for e in g.out_edges(v))]
        if movable:
            m = expand(g, m, rng.choice(movable))
    return m


def test_equivalent_matches_reference_search():
    rng = random.Random(2024)
    for i in range(400):
        g = random_looped_graph(rng, every_vertex=False)
        a = random_element(rng, g)
        # every other pair is a few moves apart, so chains are found too
        b = random_walk(rng, g, a, 4) if i % 2 else random_element(rng, g)
        steps, size = rng.randint(1, 5), rng.randint(1, 8)
        assert equivalent(g, a, b, steps, size) == reference_equivalent(g, a, b, steps, size)


def test_equivalent_matches_reference_at_packing_edges():
    # ``equivalent`` packs a state into W-bit fields, W set by the bounds,
    # the start totals and the edge multiplicities; these are the cases
    # where a field could overflow or borrow
    rng = random.Random(16)
    for size in (1, 2, 3, 4, 7, 8, 15, 16, 31, 32):
        for i in range(8):
            g = random_looped_graph(rng, every_vertex=False)
            vs, es = list(g.vertices) + ["s"], list(g.edges)
            # a sink, and more parallel edges into one target than the bound
            u, w = rng.choice(g.vertices), rng.choice(vs)
            es += [Edge(f"p{k}", u, w) for k in range(rng.randint(size + 1, 2 * size + 2))]
            es.append(Edge("ts", rng.choice(g.vertices), "s"))
            g = Graph(tuple(vs), tuple(es))
            a = MonoidElement.of({rng.choice(vs[:-1]): rng.randint(1, 2), "s": rng.randint(0, 1)})
            if i % 4 == 0:  # a start total above the bound
                a = MonoidElement.of({rng.choice(vs): size + rng.randint(1, 3)})
            b = random_element(rng, g)
            if i % 2:  # a few expansions away; half the time, contractions
                b = expanded(rng, g, a, rng.randint(1, 3))
                a, b = (b, a) if i % 4 == 1 else (a, b)
            steps = rng.randint(1, 6)
            assert equivalent(g, a, b, steps, size) == reference_equivalent(g, a, b, steps, size)
    # a 24-vertex graph, every other vertex looped
    vs = tuple(f"v{i}" for i in range(24))
    es = [Edge(f"e{k}", rng.choice(vs), rng.choice(vs)) for k in range(40)]
    g = Graph(vs, tuple(es + [Edge(f"l{v}", v, v) for v in vs[::2]]))
    for _ in range(20):
        a = MonoidElement.of({rng.choice(vs): 1 for _ in range(2)})
        b = expanded(rng, g, a, rng.randint(1, 3))
        assert equivalent(g, a, b, 6, 8) == reference_equivalent(g, a, b, 6, 8)


def test_equivalent_matches_reference_on_long_searches():
    # 16 steps at size 16 on 9-vertex graphs with a loop at every vertex:
    # about 1,500 states and no chain on one, a 10-step chain on the other
    for seed, found in ((0, False), (16, True)):
        rng = random.Random(seed)
        vs = tuple(f"m{i}" for i in range(9))
        es = [Edge(f"l{v}", v, v) for v in vs]
        es += [Edge(f"e{k}", rng.choice(vs), rng.choice(vs)) for k in range(13)]
        g = Graph(vs, tuple(es))
        a, b = MonoidElement.of({"m0": 1}), MonoidElement.of({"m0": 2})
        out = equivalent(g, a, b, 16, 16)
        assert out == reference_equivalent(g, a, b, 16, 16)
        assert out == (Decision(True, "steps 10") if found else Decision(None, "exhausted false"))


def test_equivalent_keeps_preconditions_at_a_loop():
    # at v the loop cancels v's own entry in the net change v -> w, which
    # must not let v expand from w alone or contract w back to 0
    g = Graph(("v", "w"), (Edge("l", "v", "v"), Edge("vw", "v", "w"), Edge("m", "w", "w")))
    w = MonoidElement.of({"w": 1})
    assert equivalent(g, w, MonoidElement(), 4, 8) == Decision(None, "exhausted true")
    assert reference_equivalent(g, w, MonoidElement(), 4, 8) == Decision(None, "exhausted true")


@settings(max_examples=60)
@given(graphs(), st.data())
def test_expand_stays_equivalent(g, data):
    regular = [v for v in g.vertices if g.out_edges(v)]
    if not regular:
        return
    v = data.draw(st.sampled_from(regular))
    m = MonoidElement.of({v: 1})
    out = equivalent(g, m, expand(g, m, v), 1, 10_000)
    assert out in (Decision(True, "steps 0"), Decision(True, "steps 1"))


# ── fullness ──────────────────────────────────────────────────────────────────


def test_is_full_examples():
    assert is_full(looped_pair(), MonoidElement.of({"v": 1}))
    assert not is_full(looped_pair(), MonoidElement.of({"w": 1}))
    assert not is_full(disjoint_loops(), MonoidElement.of({"a": 1}))
    g = disjoint_loops()
    assert is_full(g, MonoidElement.of({"a": 1, "b": 1}))
    with pytest.raises(ValueError, match="^the zero element is never full$"):
        is_full(g, MonoidElement.of({}))
    with pytest.raises(ValueError, match="^unknown vertex 'y'$"):
        is_full(g, MonoidElement.of({"z": 1, "a": 1, "y": 2}))


@settings(max_examples=60)
@given(graphs(), st.data())
def test_is_full_invariant_under_expand(g, data):
    regular = [v for v in g.vertices if g.out_edges(v)]
    if not regular:
        return
    v = data.draw(st.sampled_from(regular))
    extra = data.draw(st.dictionaries(st.sampled_from(g.vertices), st.integers(0, 2), max_size=2))
    m = MonoidElement.of({v: 1} | {u: k for u, k in extra.items() if u != v})
    assert is_full(g, expand(g, m, v)) == is_full(g, m)


# ── rebalancing full elements ─────────────────────────────────────────────────


def test_rebalance_spreads_support():
    g = looped_pair()
    out = rebalance_full(g, MonoidElement.of({"v": 1}))
    assert out == MonoidElement.of({"v": 1, "w": 1})


def test_rebalance_keeps_covered_element():
    g = looped_pair()
    m = MonoidElement.of({"v": 2, "w": 1})
    assert rebalance_full(g, m) == m


def test_rebalance_output_is_equivalent():
    rng = random.Random(11)
    done = 0
    while done < 15:
        g = random_graph(rng, max_vertices=5, max_edges=10, no_sinks=True)
        cl = classify(g)
        if cl.sources or not all(any(e.dst == v for e in g.out_edges(v)) for v in g.vertices):
            continue
        m = MonoidElement.of({rng.choice(g.vertices): rng.randint(1, 2)})
        if not is_full(g, m):
            continue
        out = rebalance_full(g, m)
        assert all(out.get(v) >= 1 for v in g.vertices)
        assert equivalent(g, m, out, 30, 5000).answer is True
        done += 1


def test_rebalance_matches_reference_walk():
    rng = random.Random(5)
    done = 0
    while done < 100:
        g = random_looped_graph(rng, every_vertex=True)
        m = random_element(rng, g)
        if not m or not is_full(g, m):
            continue
        assert rebalance_full(g, m) == reference_rebalance(g, m)
        done += 1


def test_rebalance_long_looped_cycle_in_bounded_time():
    n = 300
    names = tuple(f"v{i:04d}" for i in range(n))
    cycle = tuple(Edge(f"c{i}", names[i], names[(i + 1) % n]) for i in range(n))
    loops = tuple(Edge(f"l{i}", v, v) for i, v in enumerate(names))
    g = Graph(names, cycle + loops)
    start = time.perf_counter()
    out = rebalance_full(g, MonoidElement.of({"v0000": 1}))
    assert time.perf_counter() - start < 2.0
    # every walk starts at v0000, the least covered vertex, and runs along
    # the cycle, so v_i is expanded once for each later vertex
    assert out.counts == (("v0000", 1),) + tuple((names[i], n - i) for i in range(1, n))


def test_rebalance_precondition_errors():
    with pytest.raises(ValueError, match="sink"):
        rebalance_full(arrow(), MonoidElement.of({"1": 1}))
    src = Graph(("s", "v"), (Edge("a", "s", "v"), Edge("l", "v", "v")))
    with pytest.raises(ValueError, match="source"):
        rebalance_full(src, MonoidElement.of({"s": 1}))
    from conftest import two_way_line

    with pytest.raises(ValueError, match="no loop"):
        rebalance_full(two_way_line(), MonoidElement.of({"v2": 1}))
    with pytest.raises(ValueError, match="not full"):
        rebalance_full(disjoint_loops(), MonoidElement.of({"a": 1}))
