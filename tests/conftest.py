"""Shared example graphs, random graph generators, and hypothesis strategies."""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from leavitt.graph import Edge, Graph
from leavitt.ktheory import k_summary


@pytest.fixture(autouse=True, scope="session")
def _checkout_on_subprocess_path():
    """Let ``python -m leavitt`` subprocesses import this checkout, as the
    tests themselves do through ``pythonpath`` in pyproject.toml."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(__file__).resolve().parents[1] / "src"), prepend=os.pathsep)
        yield


# ── fixed example graphs ──────────────────────────────────────────────────────


def funnel_into_cycle() -> Graph:
    """A feeder line 5 -> 4 funneling (twice) into the 3-cycle 1 -> 3 -> 2 -> 1.

    The cycle {1, 2, 3} is hereditary; the outside part {4, 5} is an acyclic
    funnel with entry paths f1, f2, g1.f1, g1.f2.
    """
    return Graph(
        ("1", "2", "3", "4", "5"),
        (
            Edge("g1", "5", "4"),
            Edge("f1", "4", "1"),
            Edge("f2", "4", "1"),
            Edge("a", "1", "3"),
            Edge("b", "3", "2"),
            Edge("c", "2", "1"),
        ),
    )


def triangle() -> Graph:
    """A 3-cycle u -> w -> v -> u with named edges."""
    return Graph(
        ("u", "v", "w"),
        (Edge("alpha", "v", "u"), Edge("beta", "u", "w"), Edge("gamma", "w", "v")),
    )


def two_way_line() -> Graph:
    """Three vertices with edges both ways along a line: v1 <-> v2 <-> v3."""
    return Graph(
        ("v1", "v2", "v3"),
        (
            Edge("gamma", "v1", "v2"),
            Edge("delta", "v2", "v1"),
            Edge("alpha", "v2", "v3"),
            Edge("beta", "v3", "v2"),
        ),
    )


def loops_and_chords() -> Graph:
    """Loops at 1 and 4 joined through 2 by a chord and a two-step path."""
    return Graph(
        ("1", "2", "3", "4"),
        (
            Edge("lp", "1", "1"),
            Edge("f", "1", "2"),
            Edge("alpha", "2", "3"),
            Edge("beta", "3", "4"),
            Edge("delta", "2", "4"),
            Edge("gamma", "4", "4"),
        ),
    )


def rose2() -> Graph:
    """One vertex with two loops."""
    return Graph(("v",), (Edge("e", "v", "v"), Edge("f", "v", "v")))


def single_loop() -> Graph:
    return Graph(("v",), (Edge("e", "v", "v"),))


def arrow() -> Graph:
    """A single edge 1 -> 2; the sink at 2 makes it the minimal non-CK graph."""
    return Graph(("1", "2"), (Edge("x", "1", "2"),))


def looped_pair() -> Graph:
    """Loops at v and w plus an edge v -> w (full elements rebalance here)."""
    return Graph(
        ("v", "w"),
        (Edge("lv", "v", "v"), Edge("vw", "v", "w"), Edge("lw", "w", "w")),
    )


# ── random graphs ─────────────────────────────────────────────────────────────


def random_graph(
    rng: random.Random,
    max_vertices: int = 8,
    max_edges: int = 16,
    no_sinks: bool = False,
) -> Graph:
    """A uniform-ish random graph; with ``no_sinks`` every vertex emits."""
    n = rng.randint(1, max_vertices)
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    edges = []
    k = rng.randint(0, max_edges)
    for i in range(1, k + 1):
        edges.append(Edge(f"e{i}", rng.choice(vertices), rng.choice(vertices)))
    if no_sinks:
        have = {e.src for e in edges}
        for v in vertices:
            if v not in have:
                edges.append(Edge(f"x{v}", v, rng.choice(vertices)))
    return Graph(vertices, tuple(edges))


def shaped_multigraph(rng: random.Random) -> Graph:
    """A random multigraph with loops, parallel edges and sinks, fed by a
    chain of sources and by a tree of sources; vertices are declared in
    shuffled order, so name order and declaration order differ."""
    n = rng.randint(1, 6)
    body = [f"v{i}" for i in range(1, n + 1)]
    pairs = []
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.choice(body), rng.choice(body)  # a loop when a == b
        pairs += [(a, b)] * rng.choice((1, 1, 2))  # sometimes a parallel pair
    chain = [f"c{i}" for i in range(1, rng.randint(0, 4) + 1)]
    pairs += zip(chain, chain[1:] + [rng.choice(body)])
    tree = [f"t{i}" for i in range(1, rng.randint(0, 5) + 1)]
    pairs += [(t, rng.choice(tree[:i]) if i else rng.choice(body)) for i, t in enumerate(tree)]
    vertices = body + chain + tree
    rng.shuffle(vertices)
    return Graph(vertices, [Edge(f"e{i}", a, b) for i, (a, b) in enumerate(pairs, 1)])


# ── invariants ────────────────────────────────────────────────────────────────


def k0_data(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(free rank of K0, nonunit invariant factors): the data every move keeps."""
    s = k_summary(g, 0)
    return s.rank_k0, s.torsion


# ── hypothesis strategies ─────────────────────────────────────────────────────


@st.composite
def graphs(draw, max_vertices: int = 6, max_edges: int = 12) -> Graph:
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    k = draw(st.integers(min_value=0, max_value=max_edges))
    ends = st.integers(min_value=1, max_value=n)
    edges = tuple(
        Edge(f"e{i}", f"v{draw(ends)}", f"v{draw(ends)}") for i in range(1, k + 1)
    )
    return Graph(vertices, edges)


@st.composite
def vertex_subsets(draw, max_vertices: int = 6, max_edges: int = 12):
    g = draw(graphs(max_vertices, max_edges))
    xs = draw(st.sets(st.sampled_from(g.vertices)))
    return g, tuple(sorted(xs))
