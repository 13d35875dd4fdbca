"""The graph monoid: finite vertex multisets modulo v = sum of out-edge ranges.

Elements are finite multisets over the vertex set.  The single relation
schema, one instance per regular vertex, replaces a copy of ``v`` by the
multiset of ranges of the edges ``v`` emits (``expand``); ``contract`` is its
inverse.  Two elements are equal in the monoid when a chain of such moves
connects them; ``equivalent`` searches for a chain within explicit bounds and
answers with an honest tri-state (a found chain is definitive, a missed one
is only inconclusive).

Elements are checked against the graph once, where they enter a public
function.  Inside, ``equivalent`` works on count vectors indexed by the
graph's vertices and ``rebalance_full`` on a vertex -> count map; both read
each vertex's relation from ``_relation``, as ``expand`` and ``contract`` do.

Text syntax: ``v1:2 v2:1`` — whitespace-separated ``vertex:multiplicity``
pairs; ``0`` is the empty element.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, NamedTuple

from .graph import Graph, _reach, _validated, classify, hs_closure

__all__ = [
    "MonoidElement",
    "parse_monoid",
    "format_monoid",
    "expand",
    "contract",
    "Equivalent",
    "NotWithinBound",
    "equivalent",
    "is_full",
    "rebalance_full",
]


class MonoidElement(NamedTuple("MonoidElement", [("counts", tuple[tuple[str, int], ...])])):
    """A finite multiset of vertices as sorted ``(vertex, count)`` pairs."""

    __slots__ = ()

    def __new__(cls, counts: Iterable[tuple[str, int]] = ()) -> "MonoidElement":
        pairs = tuple(sorted((v, int(k)) for v, k in counts))
        names = [v for v, _ in pairs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate vertex in monoid element")
        if any(k <= 0 for _, k in pairs):
            raise ValueError("multiplicities must be positive")
        return tuple.__new__(cls, (pairs,))

    @classmethod
    def of(cls, counts: Mapping[str, int] | Iterable[tuple[str, int]]) -> "MonoidElement":
        """Build from any vertex -> count mapping, dropping zero counts."""
        items = counts.items() if isinstance(counts, Mapping) else counts
        return cls(tuple((v, k) for v, k in items if k))

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.counts)

    @property
    def total(self) -> int:
        return sum(k for _, k in self.counts)

    def get(self, v: str) -> int:
        for name, k in self.counts:
            if name == v:
                return k
        return 0

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __repr__(self) -> str:
        return f"MonoidElement({format_monoid(self)!r})"


def parse_monoid(g: Graph, text: str) -> MonoidElement:
    """Parse ``v1:2 v2:1`` against the graph's vertex set; ``0`` is empty."""
    s = text.strip()
    if s in ("", "0"):
        return MonoidElement()
    counts: Counter[str] = Counter()
    for tok in s.split():
        name, sep, mult = tok.partition(":")
        if not sep or not mult:
            raise ValueError(f"expected vertex:multiplicity, got {tok!r}")
        g.require_vertex(name)
        try:
            k = int(mult)
        except ValueError:
            raise ValueError(f"multiplicity of {name!r} must be an integer") from None
        if k < 0:
            raise ValueError(f"multiplicity of {name!r} must be nonnegative")
        counts[name] += k
    return MonoidElement.of(counts)


def format_monoid(m: MonoidElement) -> str:
    if not m:
        return "0"
    return " ".join(f"{v}:{k}" for v, k in m.counts)


def _relation(g: Graph, v: str) -> Counter[str]:
    """The multiset of ranges of the edges ``v`` emits: ``v`` equals its sum."""
    out = g.out_edges(v)
    if not out:
        raise ValueError(f"vertex {v!r} is singular: the relation does not apply")
    return Counter(e.dst for e in out)


def expand(g: Graph, m: MonoidElement, v: str) -> MonoidElement:
    """Replace one copy of ``v`` by the ranges of the edges ``v`` emits."""
    g.require_vertex(v)
    _validated(g, m.support)
    if m.get(v) < 1:
        raise ValueError(f"vertex {v!r} is not in the support")
    c = Counter(dict(m.counts))
    c.update(_relation(g, v))
    c[v] -= 1
    return MonoidElement.of(c)


def contract(g: Graph, m: MonoidElement, v: str) -> MonoidElement:
    """Inverse of :func:`expand`: swallow the out-edge ranges of ``v`` back."""
    g.require_vertex(v)
    _validated(g, m.support)
    need = _relation(g, v)
    c = Counter(dict(m.counts))
    if any(c[w] < k for w, k in need.items()):
        raise ValueError(f"the out-edge ranges of {v!r} are not contained in the element")
    c.subtract(need)
    c[v] += 1
    return MonoidElement.of(c)


class Equivalent(NamedTuple):
    """Definitive: a chain of the stated length connects the two elements."""

    steps: int


class NotWithinBound(NamedTuple):
    """Inconclusive: no chain was found within the bounds.

    ``exhausted`` means both search frontiers died out, so no chain whose
    intermediate elements stay within the size bound exists at all; larger
    intermediate elements could still connect the pair.
    """

    step_bound: int
    size_bound: int
    exhausted: bool


def equivalent(
    g: Graph,
    a: MonoidElement,
    b: MonoidElement,
    step_bound: int,
    size_bound: int,
) -> Equivalent | NotWithinBound:
    """Search for a chain of expand/contract moves from ``a`` to ``b``.

    Bidirectional breadth-first search, alternating sides level by level, so
    a returned ``Equivalent.steps`` is the length of a shortest chain whose
    intermediate elements never exceed ``size_bound`` total multiplicity.
    """
    if step_bound < 1 or size_bound < 1:
        raise ValueError("bounds must be at least 1")
    _validated(g, a.support)
    _validated(g, b.support)
    if a == b:
        return Equivalent(0)
    # per emitting vertex: its index, its relation as (index, count) pairs
    # and the growth of the total on expanding it.  Expand needs the vertex
    # and contract every range: at a loop a net change would cancel these.
    index = {v: i for i, v in enumerate(g.vertices)}
    rules = []
    for v in g.vertices:
        if g.out_edges(v):
            need = _relation(g, v)
            rules.append((index[v], [(index[w], k) for w, k in need.items()],
                          sum(need.values()) - 1))

    def neighbours(s: tuple[int, ...], total: int):
        for i, need, grow in rules:
            for sign, ok in ((1, s[i] >= 1), (-1, all(s[j] >= k for j, k in need))):
                if ok and total + sign * grow <= size_bound:
                    c = list(s)
                    c[i] -= sign
                    for j, k in need:
                        c[j] += sign * k
                    yield tuple(c), total + sign * grow

    start = [(tuple(dict(m.counts).get(v, 0) for v in g.vertices), m.total) for m in (a, b)]
    seen = tuple({s: 0} for s, _ in start)
    frontier = [[x] for x in start]
    depth = [0, 0]
    while depth[0] + depth[1] < step_bound and (frontier[0] or frontier[1]):
        if frontier[0] and (depth[0] <= depth[1] or not frontier[1]):
            side = 0
        else:
            side = 1
        grown = []
        mine = seen[side]
        for s, total in frontier[side]:
            for n in neighbours(s, total):
                if n[0] not in mine:
                    mine[n[0]] = depth[side] + 1
                    grown.append(n)
        depth[side] += 1
        frontier[side] = grown
        # before this level the sides shared no state, so a meeting is new
        other = seen[1 - side]
        common = [mine[s] + other[s] for s, _ in grown if s in other]
        if common:
            return Equivalent(min(common))
    return NotWithinBound(step_bound, size_bound, not frontier[0] and not frontier[1])


def is_full(g: Graph, m: MonoidElement) -> bool:
    """Whether the support's hereditary-saturated closure is every vertex."""
    _validated(g, m.support)
    if not m:
        raise ValueError("the zero element is never full")
    return set(hs_closure(g, m.support)) == g.vertex_set


def rebalance_full(g: Graph, m: MonoidElement) -> MonoidElement:
    """Expand a full element until every vertex carries multiplicity >= 1.

    Requires every vertex to sit on a loop (which rules out sinks and
    sources), so expanding a vertex never un-covers it.  For each uncovered
    vertex, taken in name order, the least covered vertex that reaches it is
    expanded along the lexicographically least shortest path.  The result is
    connected to the input by expand moves alone.
    """
    profile = classify(g)
    if profile.sinks:
        raise ValueError(f"the graph has a sink: {profile.sinks[0]}")
    if profile.sources:
        raise ValueError(f"the graph has a source: {profile.sources[0]}")
    for v in g.vertices:
        if all(e.dst != v for e in g.out_edges(v)):
            raise ValueError(f"vertex {v!r} has no loop")
    if not is_full(g, m):
        raise ValueError("the element is not full")
    counts = Counter(dict(m.counts))
    for w in sorted(g.vertices):
        if counts[w] >= 1:
            continue
        dist = _reach(g, [w], backward=True)  # exactly the vertices that reach w
        at = min(u for u in dist if counts[u] >= 1)
        while at != w:
            step = min(
                e.dst
                for e in g.out_edges(at)
                if e.dst in dist and dist[e.dst] == dist[at] - 1
            )
            counts.update(_relation(g, at))
            counts[at] -= 1
            at = step
    return MonoidElement.of(counts)
