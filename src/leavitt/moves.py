"""Isomorphism-preserving moves on finite directed graphs.

Each move is a pure function from a graph to a graph.  Generated names are
deterministic: a path-vertex created by hereditary expansion is its edge
names joined with dots and its edge is ``ov_<path>``; a head attached at
``v`` uses vertices ``v.h1..v.hn`` and edges ``v.e1..v.en``; subdividing
``e0`` by ``n`` uses vertices ``e0.v1..e0.vn`` and edges ``e0.e1..e0.e(n+1)``;
sources attached at ``v`` use vertices ``v.s1..v.sn`` and edges
``v.f1..v.fn``.  Name collisions with existing vertices or edges are caught
by the graph constructor.  Each entry path is labelled by the walk that finds
it, and the matrix forms attach all their heads in one graph build.
``desourcify`` eliminates sources one at a time, always the least-named
source of the current graph.

A ``MoveTrace`` is a replayable certificate: each record carries the move
kind, its parameters, and FNV-1a hashes of its input and output graphs.
Traces are not always linear chains — ``desourcify`` applies its hereditary
expansion to the original input graph and documents the intermediate head
form of each source conversion — so replay keeps every graph it has seen,
keyed by hash, applies each record to the graph matching its input hash, and
returns the final record's output.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .graph import (
    Edge,
    Graph,
    PathSeq,
    _decimal,
    _reach,
    classify,
    graph_hash,
    is_hereditary,
)

if TYPE_CHECKING:
    from .algebra import CkFamily, LpaElement

__all__ = [
    "MoveRecord",
    "MoveTrace",
    "entry_paths",
    "expand_hereditary",
    "attach_head",
    "subdivide_edge",
    "attach_sources",
    "eliminate_source",
    "desourcify",
    "matrix_graph",
    "apply_move",
    "replay",
    "serialize_trace",
    "parse_trace",
    "expansion_family",
    "subdivision_family",
]


# ── hereditary expansion ──────────────────────────────────────────────────────


def entry_paths(g: Graph, hs: Iterable[str]) -> list[tuple[str, PathSeq]]:
    """All paths entering the hereditary set through their final edge, as
    ``(label, path)`` pairs sorted by label.

    Every vertex of such a path except its range lies outside the set.  This
    raises unless every vertex outside the set reaches it and no cycle lies
    outside it: the hypotheses under which hereditary expansion preserves
    the algebra, and under which the collection is finite.  Two paths may
    share a label, since names may contain dots.
    """
    h = frozenset(hs)
    if not is_hereditary(g, h):  # which also rejects unknown vertices
        raise ValueError("the vertex set is not hereditary")
    boundary = [e for e in g.edges if e.src not in h and e.dst in h]
    # h is hereditary, so every edge into an outside vertex starts outside
    can_reach = _reach(g, [e.src for e in boundary], backward=True)
    # a cycle outside h that reaches a boundary source makes the family infinite
    if len(_peel(can_reach, [e for v in can_reach for e in g._in[v]])) < len(can_reach):
        raise ValueError("a cycle outside the hereditary set reaches it: "
                         "infinitely many entry paths")
    # so when every outside vertex reaches h, the graph outside h is acyclic
    if len(can_reach) + len(h) < len(g.vertices):
        v = next(v for v in g.vertices if v not in h and v not in can_reach)
        raise ValueError(f"vertex {v!r} does not reach the hereditary set")
    # walk back from each boundary edge, one edge and label segment per step;
    # pushing in reverse pops in depth-first preorder (declaration order),
    # which the stable sort keeps among equal labels
    out = []
    stack = [(b.src, (b,), b.name) for b in reversed(boundary)]
    while stack:
        at, edges, label = stack.pop()
        out.append((label, PathSeq(at, edges)))
        stack += [(e.src, (e,) + edges, f"{e.name}.{label}") for e in reversed(g._in[at])]
    out.sort(key=lambda lp: lp[0])
    return out


def _peel(vertices: Iterable[str], edges: Iterable[Edge]) -> list[str]:
    """Kahn's algorithm on a heap, in O((V + E) log V): keep removing the
    least-named vertex with no incoming edge left.  A vertex on a cycle, or
    downstream of one, is never removed, so the order is shorter than the
    vertex list exactly when the edges hold a cycle."""
    indeg = dict.fromkeys(vertices, 0)
    succ: dict[str, list[str]] = {v: [] for v in indeg}
    for e in edges:
        indeg[e.dst] += 1
        succ[e.src].append(e.dst)
    heap = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    return order


def expand_hereditary(g: Graph, hs: Iterable[str]) -> Graph:
    """Replace the graph by the hereditary set plus one source vertex per
    entry path, each emitting a single edge onto the path's range.

    The result keeps the set's vertices and the edges emitted inside it, adds
    a vertex named by each entry path, and an edge ``ov_<path>`` from that
    vertex to the path's range.
    """
    return _expansion(g, frozenset(hs))[0]


def _expansion(g: Graph, h: frozenset[str]) -> tuple[Graph, list[tuple[str, PathSeq]]]:
    """The expanded graph and the entry paths it was built from.  Building
    the graph rejects entry labels that collide."""
    paths = entry_paths(g, h)
    vertices = tuple(v for v in g.vertices if v in h) + tuple(name for name, _ in paths)
    edges = tuple(e for e in g.edges if e.src in h) + tuple(
        Edge(f"ov_{name}", name, p.target) for name, p in paths
    )
    return Graph(vertices, edges), paths


def expansion_family(g: Graph, hs: Iterable[str]) -> CkFamily:
    """Generator images showing the expanded graph's algebra inside L(g):
    vertices of the set map to themselves, each path-vertex to ``alpha alpha*``,
    kept edges to themselves, and each ``ov_`` edge to its path."""
    from .algebra import CkFamily, element, vertex_element

    h = frozenset(hs)
    _, paths = _expansion(g, h)  # raises as expand_hereditary does
    vertex_images: dict[str, LpaElement] = {}
    edge_images: dict[str, LpaElement] = {}
    for v in g.vertices:
        if v in h:
            vertex_images[v] = vertex_element(g, v)
    for name, p in paths:
        vertex_images[name] = element([(1, p, p)])
        edge_images[f"ov_{name}"] = element([(1, p, PathSeq(p.target))])
    for e in g.edges:
        if e.src in h:
            edge_images[e.name] = element([(1, PathSeq.of((e,)), PathSeq(e.dst))])
    return CkFamily(vertex_images, edge_images)


# ── local moves ───────────────────────────────────────────────────────────────


def _check_count(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError("the length must be a positive integer")


def _with_heads(g: Graph, heads: Iterable[tuple[str, int]]) -> Graph:
    """``g`` with a head of length ``n`` attached at each ``(v, n)`` in turn,
    built as one graph; ``g`` itself when every length is 0."""
    vertices, edges = list(g.vertices), list(g.edges)
    for v, n in heads:
        vertices += (f"{v}.h{i}" for i in range(1, n + 1))
        edges += (Edge(f"{v}.e{i}", f"{v}.h{i}", f"{v}.h{i - 1}" if i > 1 else v)
                  for i in range(1, n + 1))
    return Graph(vertices, edges) if len(vertices) > len(g.vertices) else g


def attach_head(g: Graph, v0: str, n: int) -> Graph:
    """Attach a chain of ``n`` new vertices feeding into ``v0``."""
    g.require_vertex(v0)
    _check_count(n)
    return _with_heads(g, [(v0, n)])


def subdivide_edge(g: Graph, e0: str, n: int) -> Graph:
    """Replace edge ``e0`` by a chain through ``n`` new vertices."""
    e = g.edge(e0)
    _check_count(n)
    mids = tuple(f"{e0}.v{i}" for i in range(1, n + 1))
    chain = [Edge(f"{e0}.e1", f"{e0}.v1", e.dst)]
    chain += [Edge(f"{e0}.e{i}", f"{e0}.v{i}", f"{e0}.v{i - 1}") for i in range(2, n + 1)]
    chain.append(Edge(f"{e0}.e{n + 1}", e.src, f"{e0}.v{n}"))
    kept = tuple(x for x in g.edges if x.name != e0)
    return Graph(g.vertices + mids, kept + tuple(chain))


def attach_sources(g: Graph, v0: str, n: int) -> Graph:
    """Attach ``n`` new source vertices, each with one edge into ``v0``."""
    g.require_vertex(v0)
    _check_count(n)
    vs = tuple(f"{v0}.s{i}" for i in range(1, n + 1))
    es = tuple(Edge(f"{v0}.f{i}", f"{v0}.s{i}", v0) for i in range(1, n + 1))
    return Graph(g.vertices + vs, g.edges + es)


def eliminate_source(g: Graph, v: str) -> Graph:
    """Remove a source vertex together with the edges it emits.

    The source must emit an edge: removing an isolated vertex changes K0.
    """
    if g.in_edges(v):
        raise ValueError(f"vertex {v!r} is not a source")
    if not g._out[v]:
        raise ValueError(f"source {v!r} emits no edge")
    return _without(g, v)


def _without(g: Graph, v: str) -> Graph:
    """``g`` less the vertex ``v`` and the edges it emits."""
    return Graph(tuple(w for w in g.vertices if w != v),
                 tuple(e for e in g.edges if e.src != v))


def subdivision_family(g: Graph, e0: str, n: int) -> CkFamily:
    """Generator images showing the head-at-range form inside the subdivided
    form: the head graph's generators map into L(subdivide_edge(g, e0, n)),
    with the subdivided edge sent to the whole chain and everything else to
    its renamed counterpart."""
    from .algebra import CkFamily, element, vertex_element

    e = g.edge(e0)
    _check_count(n)
    host = subdivide_edge(g, e0, n)
    v0 = e.dst
    vertex_images: dict[str, LpaElement] = {v: vertex_element(host, v) for v in g.vertices}
    for i in range(1, n + 1):
        vertex_images[f"{v0}.h{i}"] = vertex_element(host, f"{e0}.v{i}")
    edge_images: dict[str, LpaElement] = {}
    for x in g.edges:
        if x.name != e0:
            px = PathSeq.of((host.edge(x.name),))
            edge_images[x.name] = element([(1, px, PathSeq(x.dst))])
    chain = PathSeq.of(host.edge(f"{e0}.e{i}") for i in range(n + 1, 0, -1))
    edge_images[e0] = element([(1, chain, PathSeq(chain.target))])
    for i in range(1, n + 1):
        pe = PathSeq.of((host.edge(f"{e0}.e{i}"),))
        edge_images[f"{v0}.e{i}"] = element([(1, pe, PathSeq(pe.target))])
    return CkFamily(vertex_images, edge_images)


# ── traces ────────────────────────────────────────────────────────────────────

# kind -> (move, one reader per text parameter)
_MOVES = {
    "ExpandHereditary": (expand_hereditary, (lambda vs: vs.split(",") if vs else (),)),
    "AttachHead": (attach_head, (str, _decimal)),
    "SubdivideEdge": (subdivide_edge, (str, _decimal)),
    "AttachSources": (attach_sources, (str, _decimal)),
    "EliminateSource": (eliminate_source, (str,)),
}


class MoveRecord(NamedTuple("MoveRecord", [("kind", str), ("params", tuple[str, ...]),
                                           ("input_hash", str), ("output_hash", str)])):
    __slots__ = ()

    def __new__(cls, kind: str, params: tuple[str, ...], input_hash: str,
                output_hash: str) -> "MoveRecord":
        if kind not in _MOVES:
            raise ValueError(f"unknown move kind {kind!r}")
        arity = len(_MOVES[kind][1])
        if len(params) != arity:
            raise ValueError(f"{kind} takes {arity} parameter(s)")
        return tuple.__new__(cls, (kind, params, input_hash, output_hash))


class MoveTrace(NamedTuple):
    records: tuple[MoveRecord, ...] = ()


def apply_move(g: Graph, kind: str, params: tuple[str, ...]) -> Graph:
    if kind not in _MOVES:
        raise ValueError(f"unknown move kind {kind!r}")
    move, readers = _MOVES[kind]
    return move(g, *(read(p) for read, p in zip(readers, params)))


def replay(trace: MoveTrace, g: Graph) -> Graph:
    """Re-run a trace from its input graph, verifying every hash."""
    known = {graph_hash(g): g}
    last = g
    for i, rec in enumerate(trace.records):
        src = known.get(rec.input_hash)
        if src is None:
            raise ValueError(f"record {i}: input hash {rec.input_hash} matches no known graph")
        out = apply_move(src, rec.kind, rec.params)
        got = graph_hash(out)
        if got != rec.output_hash:
            raise ValueError(f"record {i}: output hash mismatch ({got} != {rec.output_hash})")
        known[got] = out
        last = out
    return last


def serialize_trace(trace: MoveTrace) -> str:
    lines = [
        " ".join(("move", r.kind) + r.params + (r.input_hash, r.output_hash))
        for r in trace.records
    ]
    return "".join(line + "\n" for line in lines)


def parse_trace(text: str) -> MoveTrace:
    records = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "move" or len(parts) < 2:
            raise ValueError(f"line {lineno}: expected 'move <kind> <params...> <in> <out>'")
        kind = parts[1]
        if kind not in _MOVES or len(parts) != 2 + len(_MOVES[kind][1]) + 2:
            raise ValueError(f"line {lineno}: malformed {kind} record")
        records.append(MoveRecord(kind, tuple(parts[2:-2]), parts[-2], parts[-1]))
    return MoveTrace(tuple(records))


# ── desourcification ──────────────────────────────────────────────────────────


def desourcify(g: Graph) -> tuple[Graph, MoveTrace]:
    """Remove all sources while preserving the algebra up to isomorphism.

    Pipeline: eliminate the least-named source of the current graph until
    none is left, which leaves the source-free core F; apply one hereditary
    expansion with the core's vertex set to the ORIGINAL graph (its
    entry-path vertices are the only sources of the result); then
    per core vertex, in name order, eliminate the path-vertex sources aimed
    at it, record the equivalent head form, and absorb the head by
    subdividing the lexicographically least edge into that vertex.  A graph
    with no sources comes back unchanged with an empty trace.
    """
    profile = classify(g)
    if profile.sinks:
        raise ValueError("desourcify requires a graph with no sinks")
    if not profile.sources:
        return g, MoveTrace(())
    records: list[MoveRecord] = []
    hashes: dict[Graph, str] = {}

    def record(kind: str, params: tuple[str, ...], src: Graph, out: Graph) -> None:
        # equal graphs serialize identically, so each one is hashed once even
        # when two moves produce it (eliminating every path-vertex source
        # aimed at one core vertex can rebuild the core itself)
        for x in (src, out):
            if x not in hashes:
                hashes[x] = graph_hash(x)
        records.append(MoveRecord(kind, params, hashes[src], hashes[out]))

    def eliminate(cur: Graph, sources: Iterable[str]) -> Graph:
        # each is a source of cur that emits an edge (no edge runs into a
        # source, so peeling a sink-free graph leaves no sink, and each path
        # vertex emits one edge), so eliminate_source's checks are left to replay
        for v in sources:
            nxt = _without(cur, v)
            record("EliminateSource", (v,), cur, nxt)
            cur = nxt
        return cur

    core = eliminate(g, _peel(g.vertices, g.edges))
    if not core.vertices:
        raise AssertionError("a finite sink-free graph keeps a cycle; the core cannot be empty")
    expanded = expand_hereditary(g, core.vertices)
    record("ExpandHereditary", (",".join(sorted(core.vertices)),), g, expanded)
    cur = expanded
    # the expansion's only sources are its path-vertices, each emitting one
    # edge into the core; eliminations and subdivisions add no source, and
    # leave each later core vertex's in-edges as they are in the expansion
    for v in sorted(core.vertices):
        into = expanded._in[v]
        aimed = sorted(e.src for e in into if e.src not in core.vertex_set)
        if not aimed:
            continue
        n = len(aimed)
        base = eliminate(cur, aimed)
        record("AttachHead", (v, str(n)), base, attach_head(base, v, n))
        e0 = min(e.name for e in into if e.src in core.vertex_set)
        cur = subdivide_edge(base, e0, n)
        record("SubdivideEdge", (e0, str(n)), base, cur)
    return cur, MoveTrace(tuple(records))


# ── stabilizations ────────────────────────────────────────────────────────────


def matrix_graph(g: Graph, n: int) -> Graph:
    """Attach a head of length n-1 at every vertex (the n x n matrix form)."""
    _check_count(n)
    return _with_heads(g, [(v, n - 1) for v in g.vertices])
