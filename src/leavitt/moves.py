"""Moves on finite directed graphs that preserve the Leavitt path algebra up
to isomorphism or Morita equivalence: ``expand_hereditary`` up to
isomorphism, ``attach_head``, ``attach_sources``, ``eliminate_source``,
``subdivide_edge`` and ``matrix_graph`` up to Morita equivalence only (a
head of length 1 at the rose R_3 sends [1] = [v] != 0 in K_0 = Z/2 to
2[v] = 0; subdividing R_1's loop turns k[x, x^-1] into M_2(k[x, x^-1])).

Each move is a pure function from a graph to a graph.  Generated names are
deterministic joins of old ones: a path-vertex created by hereditary
expansion is its edge names joined with dots and its edge is ``ov_<path>``;
a head attached at ``v`` uses vertices ``v.h1..v.hn`` and edges
``v.e1..v.en``; subdividing ``e0`` by ``n`` uses vertices ``e0.v1..e0.vn``
and edges ``e0.e1..e0.e(n+1)``; sources attached at ``v`` use vertices
``v.s1..v.sn`` and edges ``v.f1..v.fn``.  Names may contain dots and
underscores, so a joined name may already be taken, by a vertex or edge the
output keeps or by a name made earlier in the same build; the new vertex or
edge is then named ``<joined>_<k>`` for the least free ``k >= 1``, decided
in build order by the input graph and the move's parameters.  Every builder
names through ``graph._minted`` and hands the names it made to its family
and to ``desourcify``'s trace, and replay makes the same names again.
Each entry path is an ``EntryPath`` record: the
walk that finds it gives its label, its range, its first edge and the record
of the entry path that edge extends, and builds no ``PathSeq``; only
``expansion_family`` asks a record for its checked ``path``.  The matrix
forms attach all their heads in one graph build.
``desourcify`` peels the input's sources, always the least-named one left,
down to its source-free core, built as one graph; eliminating the
path-vertex sources of the expansion leaves that core again, so that phase
reuses it.

A ``MoveTrace`` is a replayable certificate: each record carries the move
kind, its parameters, and FNV-1a hashes of its input and output graphs.
An ``EliminateSources v1,...,vk`` record is ``EliminateSource`` applied to
each listed vertex in turn, checked at each turn, with one hash for the
whole phase; ``AttachHeads v1:n1,...`` and ``SubdivideEdges e1:n1,...``
are ``AttachHead`` and ``SubdivideEdge`` batched the same way.  Traces
written one record per source, or one head and one subdivision per core
vertex, still replay.  Traces are not always linear chains — ``desourcify``
applies its hereditary expansion to the original input, and its
``AttachHeads`` (the intermediate head form) and ``SubdivideEdges`` records
both to the core — so replay keeps every graph it has seen, keyed by hash,
applies each record to the graph matching its input hash, and returns the
final record's output.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from operator import itemgetter, methodcaller
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .graph import (
    Edge,
    Graph,
    PathSeq,
    _checked_make,
    _decimal,
    _minted,
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
    "EntryPath",
    "entry_paths",
    "expand_hereditary",
    "attach_head",
    "subdivide_edge",
    "attach_sources",
    "eliminate_source",
    "desourcify",
    "matrix_graph",
    "replay",
    "serialize_trace",
    "parse_trace",
    "expansion_family",
    "subdivision_family",
]


# ── hereditary expansion ──────────────────────────────────────────────────────


class EntryPath(NamedTuple):
    """A path entering a hereditary set through its final edge, stored as its
    first edge and the entry path that edge extends (``None`` when the path
    is the boundary edge alone).  ``label`` is the path's edge names joined
    with dots and ``target`` its range, in the set.

    The chain of records may be as long as the path, so comparing, hashing,
    copying and pickling walk the ``rest`` links in a loop instead of
    recursing once per edge."""

    label: str
    target: str
    edge: Edge
    rest: EntryPath | None

    def _chain(self) -> list[EntryPath]:
        """This record and the records below it, down the ``rest`` links."""
        chain = []
        p: EntryPath | None = self
        while p is not None:
            chain.append(p)
            p = p.rest
        return chain

    @property
    def path(self) -> PathSeq:
        """The path as a ``PathSeq``, its joints and range checked."""
        path = PathSeq(self.edge.src, tuple(p.edge for p in self._chain()))
        if path.target != self.target:
            raise ValueError(f"the path ends at {path.target!r}, not {self.target!r}")
        return path

    def _key(self) -> tuple:
        """The labels, targets and edges down the chain: equal keys are
        equal fields at every link."""
        return tuple(zip(*self._chain()))[:3]

    def __eq__(self, other):
        if not isinstance(other, EntryPath):
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other):
        if not isinstance(other, EntryPath):
            return NotImplemented
        return self._key() != other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # the records below this one come first, deepest first, so a pickler
        # or deepcopy has made each record's rest before it makes the record
        chain = self._chain()
        return _entry_path, (*chain[:0:-1], *self[:3])

    def __repr__(self) -> str:  # the record chain may be as long as the path
        return f"EntryPath({self.label!r})"


def _entry_path(*fields) -> EntryPath:
    """The record of :meth:`EntryPath.__reduce__`: the records below it, the
    last of them its rest, then its label, target and edge."""
    *below, label, target, edge = fields
    return tuple.__new__(EntryPath, (label, target, edge, below[-1] if below else None))


def entry_paths(g: Graph, hs: Iterable[str]) -> list[EntryPath]:
    """All paths entering the hereditary set through their final edge, as
    ``EntryPath`` records sorted by label.

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
    # walk back from each boundary edge, each record linking to the one it
    # extends by one edge; pushing in reverse pops in depth-first preorder
    # (declaration order), which the stable sort keeps among equal labels
    into = g._in
    out = []
    stack = [EntryPath(b.name, b.dst, b, None) for b in reversed(boundary)]
    push = stack.append
    while stack:
        p = stack.pop()
        out.append(p)
        for e in reversed(into[p.edge.src]):
            push(tuple.__new__(EntryPath, (f"{e.name}.{p.label}", p.target, e, p)))
    out.sort(key=itemgetter(0))
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
    entry path, each emitting a single edge onto the path's range; the
    algebra is kept up to isomorphism.

    The result keeps the set's vertices and the edges emitted inside it, adds
    a vertex named by each entry path, and an edge ``ov_<path>`` from that
    vertex to the path's range, each name minted as the ``moves`` docstring
    says.
    """
    return _expansion(g, frozenset(hs))[0]


def _expansion(g: Graph, h: frozenset[str]) -> tuple[Graph, list[EntryPath], list[Edge]]:
    """The expanded graph, the entry paths it was built from and, for each
    path, its new edge from the path's vertex to the path's range."""
    paths = entry_paths(g, h)
    vertices = [v for v in g.vertices if v in h]
    edges = [e for e in g.edges if e.src in h]
    names = _minted(set(vertices), [p.label for p in paths])
    new = list(map(tuple.__new__, repeat(Edge), zip(
        _minted(set(map(itemgetter(0), edges)), [f"ov_{p.label}" for p in paths]),
        names, map(itemgetter(1), paths))))
    return Graph(vertices + names, edges + new), paths, new


def expansion_family(g: Graph, hs: Iterable[str]) -> CkFamily:
    """Generator images showing the expanded graph's algebra inside L(g):
    vertices of the set map to themselves, each path-vertex to ``alpha alpha*``,
    kept edges to themselves, and each ``ov_`` edge to its path."""
    from .algebra import CkFamily, element, vertex_element

    h = frozenset(hs)
    _, paths, new = _expansion(g, h)  # raises as expand_hereditary does
    vertex_images: dict[str, LpaElement] = {}
    edge_images: dict[str, LpaElement] = {}
    for v in g.vertices:
        if v in h:
            vertex_images[v] = vertex_element(g, v)
    for entry, ov in zip(paths, new):
        p = entry.path
        vertex_images[ov.src] = element([(1, p, p)])
        edge_images[ov.name] = element([(1, p, PathSeq(p.target))])
    for e in g.edges:
        if e.src in h:
            edge_images[e.name] = element([(1, PathSeq(e.src, (e,)), PathSeq(e.dst))])
    return CkFamily(vertex_images, edge_images)


# ── local moves ───────────────────────────────────────────────────────────────


def _check_count(n: int) -> None:
    if type(n) is not int or n < 1:
        raise ValueError("the length must be a positive integer")


def _with_heads(g: Graph, heads: Iterable[tuple[str, int]]) -> tuple[Graph, list[list[Edge]]]:
    """``attach_head`` applied to each ``(v, n)`` in turn, with its checks at
    each turn, built as one graph; and each head's new edges, the edge out of
    ``v.hi`` ``i``-th."""
    vertices, edges = list(g.vertices), list(g.edges)
    vnames, enames = set(g.vertex_set), set(map(itemgetter(0), edges))
    heads_made = []
    for v, n in heads:
        if v not in vnames:
            raise ValueError(f"unknown vertex {v!r}")
        _check_count(n)
        hs = _minted(vnames, [f"{v}.h{i}" for i in range(1, n + 1)])
        new = list(map(Edge, _minted(enames, [f"{v}.e{i}" for i in range(1, n + 1)]),
                       hs, [v, *hs[:-1]]))
        vertices += hs
        edges += new
        heads_made.append(new)
    return Graph(vertices, edges), heads_made


def attach_head(g: Graph, v0: str, n: int) -> Graph:
    """Attach a chain of ``n`` new vertices feeding into ``v0`` (Morita equivalent)."""
    return _with_heads(g, [(v0, n)])[0]


def _subdivided(g: Graph, chains: Iterable[tuple[str, int]]) -> tuple[Graph, list[list[Edge]]]:
    """``subdivide_edge`` applied to each ``(e0, n)`` in turn, with its checks
    at each turn, built as one graph: each chain takes the place of its edge
    at the end of the edge list.  Also each chain's edges, the edge out of
    ``e0.vi`` ``i``-th and the edge out of ``e0``'s source last."""
    vertices, edges = list(g.vertices), {e.name: e for e in g.edges}
    vnames, enames = set(g.vertex_set), set(edges)
    chains_made = []
    for e0, n in chains:
        e = edges.pop(e0, None)
        if e is None:
            raise ValueError(f"unknown edge {e0!r}")
        enames.remove(e0)
        _check_count(n)
        vs = _minted(vnames, [f"{e0}.v{i}" for i in range(1, n + 1)])
        chain = list(map(Edge, _minted(enames, [f"{e0}.e{i}" for i in range(1, n + 2)]),
                         [*vs, e.src], [e.dst, *vs]))
        vertices += vs
        edges.update(zip(map(itemgetter(0), chain), chain))
        chains_made.append(chain)
    return Graph(vertices, edges.values()), chains_made


def subdivide_edge(g: Graph, e0: str, n: int) -> Graph:
    """Replace edge ``e0`` by a chain through ``n`` new vertices (Morita equivalent)."""
    return _subdivided(g, [(e0, n)])[0]


def attach_sources(g: Graph, v0: str, n: int) -> Graph:
    """Attach ``n`` new sources, each with one edge into ``v0`` (Morita equivalent)."""
    g.require_vertex(v0)
    _check_count(n)
    vs = _minted(set(g.vertex_set), [f"{v0}.s{i}" for i in range(1, n + 1)])
    es = _minted(set(map(itemgetter(0), g.edges)), [f"{v0}.f{i}" for i in range(1, n + 1)])
    return Graph(g.vertices + tuple(vs), g.edges + tuple(map(Edge, es, vs, repeat(v0))))


def eliminate_source(g: Graph, v: str) -> Graph:
    """Remove a source vertex and the edges it emits (Morita equivalent).

    The source must emit an edge: removing an isolated vertex changes K0.
    """
    return _eliminate_sources(g, (v,))


def _eliminate_sources(g: Graph, vs: Iterable[str]) -> Graph:
    """``eliminate_source`` applied to each of ``vs`` in turn, with its
    checks at each turn, built as one graph."""
    left = {w: len(es) for w, es in g._in.items()}  # in-edges from vertices still there
    for v in vs:
        if v not in left:  # not in g, or eliminated earlier in the list
            raise ValueError(f"unknown vertex {v!r}")
        if left.pop(v):
            raise ValueError(f"vertex {v!r} is not a source")
        if not g._out[v]:
            raise ValueError(f"source {v!r} emits no edge")
        for e in g._out[v]:  # no edge of a source runs into it or an eliminated vertex
            left[e.dst] -= 1
    return _without(g, g.vertex_set.difference(left))


def _without(g: Graph, vs: frozenset[str]) -> Graph:
    """``g`` less the vertices ``vs`` and the edges they emit."""
    return Graph([w for w in g.vertices if w not in vs], [e for e in g.edges if e.src not in vs])


def subdivision_family(g: Graph, e0: str, n: int) -> CkFamily:
    """Generator images showing the head-at-range form inside the subdivided
    form: the generators of ``attach_head(g, r(e0), n)`` map into
    L(subdivide_edge(g, e0, n)), with the subdivided edge sent to the whole
    chain, each head vertex and edge to the chain's, and everything else to
    itself."""
    from .algebra import CkFamily, element, vertex_element

    e = g.edge(e0)
    _check_count(n)
    host, (chain,) = _subdivided(g, [(e0, n)])
    _, (head,) = _with_heads(g, [(e.dst, n)])
    vertex_images: dict[str, LpaElement] = {v: vertex_element(host, v) for v in g.vertices}
    edge_images: dict[str, LpaElement] = {}
    for x in g.edges:
        if x.name != e0:
            edge_images[x.name] = element([(1, PathSeq(x.src, (x,)), PathSeq(x.dst))])
    whole = PathSeq(e.src, tuple(reversed(chain)))
    edge_images[e0] = element([(1, whole, PathSeq(whole.target))])
    for h, c in zip(head, chain):  # the edges out of v.hi and e0.vi
        vertex_images[h.src] = vertex_element(host, c.src)
        edge_images[h.name] = element([(1, PathSeq(c.src, (c,)), PathSeq(c.dst))])
    return CkFamily(vertex_images, edge_images)


# ── traces ────────────────────────────────────────────────────────────────────

_names = methodcaller("split", ",")  # reads a comma-separated vertex list


def _counts(text: str) -> list[tuple[str, int]]:
    """Reads a comma-separated ``name:count`` list."""
    pairs = []
    for pair in text.split(","):
        name, colon, count = pair.partition(":")
        if not colon:
            raise ValueError(f"expected name:count, not {pair!r}")
        pairs.append((name, _decimal(count)))
    return pairs


# kind -> (move, one reader per text parameter)
_MOVES = {
    "ExpandHereditary": (expand_hereditary, (_names,)),
    "AttachHead": (attach_head, (str, _decimal)),
    "AttachHeads": (lambda g, heads: _with_heads(g, heads)[0], (_counts,)),
    "SubdivideEdge": (subdivide_edge, (str, _decimal)),
    "SubdivideEdges": (lambda g, chains: _subdivided(g, chains)[0], (_counts,)),
    "AttachSources": (attach_sources, (str, _decimal)),
    "EliminateSource": (eliminate_source, (str,)),
    "EliminateSources": (_eliminate_sources, (_names,)),
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

    _make = _checked_make


class MoveTrace(NamedTuple):
    records: tuple[MoveRecord, ...] = ()


def replay(trace: MoveTrace, g: Graph) -> Graph:
    """Re-run a trace from its input graph, verifying every hash."""
    known = {graph_hash(g): g}
    last = g
    for i, rec in enumerate(trace.records):
        src = known.get(rec.input_hash)
        if src is None:
            raise ValueError(f"record {i}: input hash {rec.input_hash} matches no known graph")
        move, readers = _MOVES[rec.kind]
        try:
            out = move(src, *(read(p) for read, p in zip(readers, rec.params)))
        except ValueError as err:
            raise ValueError(f"record {i}: {err}") from None
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
        if parts[0] != "move" or len(parts) < 4:
            raise ValueError(f"line {lineno}: expected 'move <kind> <params...> <in> <out>'")
        try:
            records.append(MoveRecord(parts[1], tuple(parts[2:-2]), parts[-2], parts[-1]))
        except ValueError as err:  # an unknown kind or a wrong parameter count
            raise ValueError(f"line {lineno}: {err}") from None
    return MoveTrace(tuple(records))


# ── desourcification ──────────────────────────────────────────────────────────


def desourcify(g: Graph) -> tuple[Graph, MoveTrace]:
    """Remove all sources while preserving the algebra up to isomorphism.

    Pipeline: eliminate the least-named source of the current graph until
    none is left, which leaves the source-free core F; apply one hereditary
    expansion with the core's vertex set to the ORIGINAL graph (its
    entry-path vertices are the only sources of the result); eliminate those
    path-vertex sources, grouped by the core vertex they are aimed at (core
    vertices in name order, each group in its paths' label order); record
    the equivalent head form, a head at each such core vertex as long as its
    group; and absorb each head by subdividing the lexicographically least
    edge into its vertex by that length.  The trace has five records
    whatever the size of the core: ``EliminateSources`` for the peel,
    ``ExpandHereditary``, ``EliminateSources`` for the path vertices, then
    ``AttachHeads`` and ``SubdivideEdges``, both applied to the core, which
    is what both elimination phases leave.  Each is built as one graph, so each graph the
    pipeline passes through is hashed once.  A graph with no sources comes
    back unchanged with an empty trace.
    """
    profile = classify(g)
    if profile.sinks:
        raise ValueError("desourcify requires a graph with no sinks")
    if not profile.sources:
        return g, MoveTrace(())
    # each peeled vertex is a source at its turn that emits an edge (no edge
    # runs into a source, so peeling a sink-free graph leaves no sink), so
    # the checks are left to replay
    peel = _peel(g.vertices, g.edges)
    core = _without(g, frozenset(peel))
    if not core.vertices:
        raise AssertionError("a finite sink-free graph keeps a cycle; the core cannot be empty")
    expanded, _, new = _expansion(g, core.vertex_set)
    # the expansion's only sources are its path vertices, each emitting one
    # edge into the core; the paths come sorted by label, and so each group
    aimed: dict[str, list[str]] = {}
    for ov in new:
        aimed.setdefault(ov.dst, []).append(ov.src)
    heads = [(v, len(aimed[v])) for v in sorted(aimed)]
    # the core has no source, so each core vertex receives an edge from it
    chains = [(min(e.name for e in core._in[v]), n) for v, n in heads]
    out = _subdivided(core, chains)[0]
    # eliminating the path vertices leaves the core itself: its vertices and
    # the edges they emit, in input order
    g_hash, core_hash, expanded_hash = graph_hash(g), graph_hash(core), graph_hash(expanded)
    return out, MoveTrace((
        MoveRecord("EliminateSources", (",".join(peel),), g_hash, core_hash),
        MoveRecord("ExpandHereditary", (",".join(sorted(core.vertices)),), g_hash, expanded_hash),
        MoveRecord("EliminateSources", (",".join(s for v, _ in heads for s in aimed[v]),),
                   expanded_hash, core_hash),
        MoveRecord("AttachHeads", (",".join(f"{v}:{n}" for v, n in heads),), core_hash,
                   graph_hash(_with_heads(core, heads)[0])),
        MoveRecord("SubdivideEdges", (",".join(f"{e}:{n}" for e, n in chains),), core_hash,
                   graph_hash(out)),
    ))


# ── stabilizations ────────────────────────────────────────────────────────────


def matrix_graph(g: Graph, n: int) -> Graph:
    """Attach a head of length n-1 at every vertex: the n x n matrix form, M_n(L(g))."""
    _check_count(n)
    return _with_heads(g, [(v, n - 1) for v in g.vertices])[0] if n > 1 else g
