"""Corner graphs cut out of a host graph by a directed forest.

A forest is a subset of the host's edges with in-degree at most one and no
cycles; its roots are the vertices with no incoming forest edge, and every
forest vertex is reached from a root along a unique forest path ``tau(v)``.
The corner graph keeps the forest vertices that emit at least one non-forest
edge and, for each non-forest edge ``e`` emitted inside the forest, one edge
``e_u`` for every kept vertex ``u`` below ``r(e)`` in the forest, named
``<e>_<u>``.  Names may contain underscores, so two such joins may coincide
(``x`` into ``y_z`` and ``x_y`` into ``z``); the later of them in the
corner's edge order is then named ``<e>_<u>_<k>`` for the least free
``k >= 1``.  That
rule, names included, is computed once per forest, so the corner graph and
its family read the same names: the forest is walked in preorder, so the
kept vertices below any vertex are one run of the kept vertices in walk
order.

The corner's algebra sits inside the host's as a corner by an explicit
family: ``Q_v = tau(v) tau(v)* - sum tau(v) e e* tau(v)*`` over the forest
edges emitted by ``v``, and ``T_{e_u} = tau(s(e)) e tau(r(e))* Q_u``; the
weight map below makes every ``Q_v`` degree 0 and every ``T_{e_u}`` degree 1.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

from .graph import Edge, Graph, PathSeq, _frozen, _minted, _validated

if TYPE_CHECKING:
    from .algebra import CkFamily, LpaElement

__all__ = [
    "Forest",
    "build_forest",
    "t_corner",
    "corner_family",
    "corner_weights",
]


class Forest:
    """A directed forest inside a host graph.

    ``roots`` must be exactly the forest vertices with no incoming forest
    edge; the forest edges must have in-degree at most one and no cycles, so
    every forest vertex hangs from a unique root.  Forests compare and hash
    by graph, roots and tree edges.
    """

    __setattr__ = __delattr__ = _frozen

    def __init__(self, graph: Graph, roots: Iterable[str], tree_edges: Iterable[Edge]) -> None:
        roots = tuple(sorted(roots))
        tree_edges = list(tree_edges)
        if not all(map(isinstance, tree_edges, repeat(Edge))):
            tree_edges = [Edge(*e) for e in tree_edges]
        tree_edges = tuple(sorted(tree_edges, key=itemgetter(0)))
        for v in roots:
            graph.require_vertex(v)
        host = graph._edge_by_name
        names = set()
        for e in tree_edges:
            if host.get(e.name) != e:
                graph.edge(e.name)  # raises for an unknown name
                raise ValueError(f"tree edge {e.name!r} is not an edge of the host")
            if e.name in names:
                raise ValueError(f"duplicate tree edge {e.name!r}")
            names.add(e.name)
        if len(set(roots)) != len(roots):
            raise ValueError("duplicate root")
        parent: dict[str, Edge] = {}
        children: dict[str, list[str]] = {}
        for e in tree_edges:
            if e.dst in parent:
                raise ValueError(f"vertex {e.dst!r} has two incoming tree edges")
            parent[e.dst] = e
            children.setdefault(e.src, []).append(e.dst)
        members = set(roots) | {e.src for e in tree_edges} | set(parent)
        rootless = {v for v in members if v not in parent} - set(roots)
        if rootless:
            raise ValueError(f"vertices {sorted(rootless)} have no incoming tree edge "
                             "but are not roots")
        if set(roots) & set(parent):
            raise ValueError("a root cannot have an incoming tree edge")
        # walk down from the roots in preorder, children in list order, so
        # that every subtree is one run of the walk (``depth`` keeps the walk's
        # order); in-degree is at most 1 and every other member has a parent,
        # so a member the walk misses lies on a cycle
        depth: dict[str, int] = {}
        stack = [(v, 0) for v in reversed(roots)]
        while stack:
            u, d = stack.pop()
            depth[u] = d
            stack.extend((w, d + 1) for w in reversed(children.get(u, ())))
        if len(depth) != len(members):
            raise ValueError("the tree edges contain a cycle")
        vars(self).update(graph=graph, roots=roots, tree_edges=tree_edges,
                          vertex_set=frozenset(members), parent=parent,
                          _tree_names=frozenset(names), _children=children, _depth=depth)

    def __eq__(self, other):
        if type(other) is not Forest:
            return NotImplemented
        return (self.graph == other.graph and self.roots == other.roots
                and self.tree_edges == other.tree_edges)

    def __hash__(self) -> int:
        return hash((self.graph, self.roots, self.tree_edges))

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        """Forest vertices in host declaration order."""
        return tuple(v for v in self.graph.vertices if v in self.vertex_set)

    def tau(self, v: str) -> PathSeq:
        """The unique forest path from a root down to ``v``."""
        if v not in self.vertex_set:
            raise ValueError(f"vertex {v!r} is not in the forest")
        chain: list[Edge] = []
        while v in self.parent:
            chain.append(self.parent[v])
            v = chain[-1].src
        return PathSeq(v, tuple(reversed(chain)))

    @cached_property
    def _corner(self) -> tuple[tuple[str, ...], list[tuple[Edge, list[Edge]]]]:
        """The corner rule, computed once: the kept vertices (those emitting
        no edge or some non-tree edge) in host order, and each non-tree edge
        emitted inside the forest, in host order, with its corner edges, one
        to each kept vertex below its range in host order."""
        g, tree = self.graph, self._tree_names
        kept = tuple(v for v in self.vertices
                     if not g._out[v] or any(e.name not in tree for e in g._out[v]))
        rank = {v: i for i, v in enumerate(kept)}
        # the kept vertices in walk order; those below v are run[slice(*span[v])]
        run = [v for v in self._depth if v in rank]
        span: dict[str, tuple[int, int]] = {}
        before = len(run)  # kept vertices before v in walk order
        for v in reversed(self._depth):
            before -= v in rank
            kids = self._children.get(v)
            span[v] = (before, span[kids[-1]][1] if kids else before + (v in rank))
        below: dict[str, tuple[str, ...]] = {}  # one entry per distinct range
        pairs = []
        for e in g.edges:
            # a range outside a hand-built forest has no kept vertex below it
            if e.src in span and e.dst in span and e.name not in tree:
                if e.dst not in below:
                    below[e.dst] = tuple(sorted(run[slice(*span[e.dst])], key=rank.__getitem__))
                pairs.append((e, below[e.dst]))
        names = _minted(set(), [f"{e.name}_{u}" for e, us in pairs for u in us])
        corner, at = [], 0
        for e, us in pairs:
            corner.append((e, list(map(tuple.__new__, repeat(Edge),
                                       zip(names[at:at + len(us)], repeat(e.src), us)))))
            at += len(us)
        return kept, corner


def build_forest(g: Graph, roots: Iterable[str]) -> Forest:
    """Grow a forest over the hereditary closure of ``roots``.

    Greedy search: among all edges from an already-reached vertex to an
    unreached one, repeatedly take the lexicographically least edge name.
    No edge ever enters the root set.
    """
    x = _validated(g, roots)
    if not x:
        raise ValueError("the root set must be nonempty")
    if x == set(g.vertices):
        raise ValueError("the root set must be a proper subset of the vertices")
    reached = set(x)
    # edges leaving the reached set; Edge tuples order by their unique names
    heap = [e for v in x for e in g.out_edges(v)]
    heapify(heap)
    chosen: list[Edge] = []
    while heap:
        e = heappop(heap)
        if e.dst in reached:
            continue
        chosen.append(e)
        reached.add(e.dst)
        for f in g.out_edges(e.dst):
            heappush(heap, f)
    return Forest(g, tuple(sorted(x)), tuple(chosen))


def t_corner(g: Graph, t: Forest) -> Graph:
    """The corner graph cut out by the forest."""
    if t.graph != g:
        raise ValueError("the forest belongs to a different host graph")
    kept, corner = t._corner
    return Graph(kept, [x for _, xs in corner for x in xs])


def corner_family(g: Graph, t: Forest) -> CkFamily:
    """Images of the corner graph's generators inside the host algebra."""
    from .algebra import CkFamily, element

    if t.graph != g:
        raise ValueError("the forest belongs to a different host graph")
    kept, corner = t._corner
    q: dict[str, LpaElement] = {}
    for v in kept:
        tv = t.tau(v)
        terms = [(1, tv, tv)]
        for e in g.out_edges(v):
            if e.name in t._tree_names:
                ext = tv.extend(e)
                terms.append((-1, ext, ext))
        q[v] = element(terms)
    td: dict[str, LpaElement] = {}
    for e, xs in corner:
        stem = element([(1, t.tau(e.src).extend(e), t.tau(e.dst))])
        for x in xs:
            td[x.name] = stem * q[x.dst]
    return CkFamily(q, td)


def corner_weights(g: Graph, t: Forest) -> dict[str, int]:
    """Edge weights making the corner family graded: a non-tree edge between
    forest vertices weighs ``len(tau(r(e))) - len(tau(s(e))) + 1``; every
    other edge weighs 1."""
    if t.graph != g:
        raise ValueError("the forest belongs to a different host graph")
    depth, tree = t._depth, t._tree_names  # depth[v] = len(tau(v))
    return {e.name: depth[e.dst] - depth[e.src] + 1
            if e.name not in tree and e.src in depth and e.dst in depth else 1
            for e in g.edges}

