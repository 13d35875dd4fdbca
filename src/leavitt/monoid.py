"""The graph monoid: finite vertex multisets modulo v = sum of out-edge ranges.

Elements are finite multisets over the vertex set.  The single relation
schema, one instance per regular vertex, replaces a copy of ``v`` by the
multiset of ranges of the edges ``v`` emits (``expand``); contracting them
back is its inverse.  Two elements are equal in the monoid when a chain of
such moves connects them; ``equivalent`` searches for a chain within explicit
bounds and answers with a ``Decision``: ``answer`` is ``True`` when a chain
was found, which is definitive, and ``None`` (unknown) when none was, which
is only inconclusive; ``reason`` is ``steps k``, ``exhausted true`` or
``exhausted false``.

Elements are checked against the graph once, where they enter a public
function.  Inside, ``equivalent`` packs each state into one ``int``, a field
of W bits per vertex in the graph's vertex order, with W chosen so that no
count or edge multiplicity reaches the field's top bit; that guard bit lets
one subtraction test a whole contraction.  ``rebalance_full`` works on a
vertex -> count map.  Both read each vertex's relation from ``_relation``, as
``expand`` does.

Text syntax: ``v1:2 v2:1`` — whitespace-separated ``vertex:multiplicity``
pairs; ``0`` is the empty element.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, NamedTuple

from .graph import Graph, _checked_make, _decimal, _digits, _reach, _validated, classify, hs_closure

__all__ = [
    "MonoidElement",
    "parse_monoid",
    "format_monoid",
    "expand",
    "Decision",
    "equivalent",
    "is_full",
    "rebalance_full",
]


class MonoidElement(NamedTuple("MonoidElement", [("counts", tuple[tuple[str, int], ...])])):
    """A finite multiset of vertices as sorted ``(vertex, count)`` pairs."""

    __slots__ = ()

    def __new__(cls, counts: Iterable[tuple[str, int]] = ()) -> "MonoidElement":
        pairs = tuple(sorted(((v, k) for v, k in counts), key=lambda p: p[0]))
        names = [v for v, _ in pairs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate vertex in monoid element")
        if any(type(k) is not int for _, k in pairs):
            raise ValueError("multiplicities must be integers")
        if any(k <= 0 for _, k in pairs):
            raise ValueError("multiplicities must be positive")
        return tuple.__new__(cls, (pairs,))

    _make = _checked_make

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
        return dict(self.counts).get(v, 0)

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
            k = _decimal(mult)
        except ValueError:
            raise ValueError(f"multiplicity of {name!r} must be an integer") from None
        if k < 0:
            raise ValueError(f"multiplicity of {name!r} must be nonnegative")
        counts[name] += k
    return MonoidElement.of(counts)


def format_monoid(m: MonoidElement) -> str:
    if not m:
        return "0"
    return " ".join(f"{v}:{_digits(k)}" for v, k in m.counts)


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


class Decision(NamedTuple):
    """An answer with the report line printed under it.

    ``answer`` is ``True`` (decided yes) or ``None`` (unknown).  Equality is
    tuple equality, so answers that differ never compare equal, and neither
    do two reasons for the same answer.
    """

    answer: bool | None
    reason: str


def equivalent(
    g: Graph,
    a: MonoidElement,
    b: MonoidElement,
    step_bound: int,
    size_bound: int,
) -> Decision:
    """Search for a chain of expand/contract moves from ``a`` to ``b``.

    Bidirectional breadth-first search, alternating sides level by level.
    ``Decision(True, "steps k")``: k is the length of a shortest chain whose
    intermediate elements never exceed ``size_bound`` total multiplicity.
    ``Decision(None, "exhausted true")``: both frontiers died out, so no chain
    stays within the size bound at all, though larger intermediate elements
    could still connect the pair.  ``Decision(None, "exhausted false")``: the
    step bound cut the search off.  Both bounds must be ``int``s of at least 1.
    """
    if any(type(n) is not int or n < 1 for n in (step_bound, size_bound)):
        raise ValueError("bounds must be integers of at least 1")
    _validated(g, a.support)
    _validated(g, b.support)
    if a == b:
        return Decision(True, "steps 0")
    # Bits [i*W, (i+1)*W) of a state count the i-th vertex.  No count or edge
    # multiplicity reaches 2**(W-1), so that top bit of each field is a guard.
    needs = {v: _relation(g, v) for v in g.vertices if g.out_edges(v)}
    width = max(size_bound, a.total, b.total,
                *(k for need in needs.values() for k in need.values())).bit_length() + 1
    shift = {v: i * width for i, v in enumerate(g.vertices)}
    low, guard = (1 << width) - 1, sum(1 << s + width - 1 for s in shift.values())
    # per emitting vertex: its shift, the packed change on expanding it, the
    # packed ranges contracting it needs and the growth of the total.  Expand
    # needs the vertex and contract every range: at a loop a net change would
    # cancel these.
    rules = []
    for v, need in needs.items():
        ranges = sum(k << shift[w] for w, k in need.items())
        rules.append((shift[v], ranges - (1 << shift[v]), ranges, sum(need.values()) - 1))
    start = [(sum(k << shift[v] for v, k in m.counts), m.total) for m in (a, b)]
    seen = tuple({s: 0} for s, _ in start)
    frontier = [[x] for x in start]
    depth = [0, 0]
    while depth[0] + depth[1] < step_bound and (frontier[0] or frontier[1]):
        side = 0 if frontier[0] and (depth[0] <= depth[1] or not frontier[1]) else 1
        grown = []
        mine = seen[side]
        d = depth[side] + 1
        for s, total in frontier[side]:
            guarded = s | guard
            for at, delta, ranges, grow in rules:
                if s >> at & low and total + grow <= size_bound and (n := s + delta) not in mine:
                    mine[n] = d
                    grown.append((n, total + grow))
                if (total - grow <= size_bound and (guarded - ranges) & guard == guard
                        and (n := s - delta) not in mine):
                    mine[n] = d
                    grown.append((n, total - grow))
        depth[side] = d
        frontier[side] = grown
        # before this level the sides shared no state, so a meeting is new
        other = seen[1 - side]
        common = [mine[s] + other[s] for s, _ in grown if s in other]
        if common:
            return Decision(True, f"steps {min(common)}")
    return Decision(None, f"exhausted {str(not frontier[0] and not frontier[1]).lower()}")


def is_full(g: Graph, m: MonoidElement) -> bool:
    """Whether the support's hereditary-saturated closure is every vertex."""
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
