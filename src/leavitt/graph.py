"""Finite directed multigraphs with the vocabulary used by graph algebras.

Graphs are immutable: vertices and edges keep their declaration order, names
are unique within their kind, and every operation is a pure function.
Set-valued results come back as lexicographically sorted tuples so that
repeated runs are byte-identical.

Text format (one declaration per line, LF-terminated)::

    # comment
    vertex <name>
    edge <name> <source> <target>

Names match ``[A-Za-z0-9_.]+``.  The serializer emits all vertices, then all
edges, in declaration order; parsing its output reproduces the graph exactly.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Edge",
    "Graph",
    "PathSeq",
    "VertexClassification",
    "classify",
    "is_hereditary",
    "is_saturated",
    "hereditary_closure",
    "saturated_closure",
    "hs_closure",
    "parse_graph",
    "serialize_graph",
    "fnv1a64",
    "graph_hash",
]

_NAME_BYTES = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_."
_name, _src, _dst = itemgetter(0), itemgetter(1), itemgetter(2)  # the fields of an Edge


def _name_chars(text: str) -> bool:
    """Whether every character of ``text`` is one of ``[A-Za-z0-9_.]``; names
    are checked alone and run together.  Deleting the allowed bytes is faster
    than a regex scan, and ``isascii`` refuses surrogates before ``encode``
    could fail on them."""
    return text.isascii() and not text.encode().translate(None, _NAME_BYTES)


class Edge(NamedTuple):
    """A named edge from ``src`` to ``dst``."""

    name: str
    src: str
    dst: str


def _check_name(kind: str, name: str) -> None:
    if not isinstance(name, str) or not name or not _name_chars(name):
        raise ValueError(f"invalid {kind} name {name!r}: names match [A-Za-z0-9_.]+")


def _decimal(text: str) -> int:
    """``int(text)`` for ASCII digits after an optional minus sign only, at
    any length; ``int`` alone also reads ``+``, ``_``, spaces and non-ASCII
    digits, and refuses strings longer than the interpreter's limit (4,300
    digits by default, 640 at the least), so they come in 600 at a time."""
    digits = text.removeprefix("-")
    if not (text.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    n = 0
    for i in range(0, len(digits), 600):
        chunk = digits[i:i + 600]
        n = n * 10**len(chunk) + int(chunk)
    return -n if text[0] == "-" else n


def _digits(d: int) -> str:
    """The decimal digits of ``d >= 0`` at any length, the inverse of
    :func:`_decimal`: ``str`` refuses integers past the same limit, so they
    go out 600 at a time."""
    chunks = []
    while d >= 10**600:
        d, low = divmod(d, 10**600)
        chunks.append(f"{low:0600d}")
    return str(d) + "".join(reversed(chunks))


# namedtuple's _make, which _replace also calls, skips __new__ and its checks
_checked_make = classmethod(lambda cls, fields: cls(*fields))


def _frozen(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of the immutable plain classes."""
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")


class Graph:
    """Immutable finite directed multigraph with named vertices and edges.

    Edge endpoints must be declared vertices; names are unique within their
    kind.  A vertex and an edge may share a name, but element text that uses
    a token which names both a vertex and a path is refused as ambiguous.
    Graphs compare and hash by their vertex and edge tuples.
    """

    __setattr__ = __delattr__ = _frozen

    def __init__(self, vertices: Iterable[str] = (), edges: Iterable = ()) -> None:
        vars(self).update(vertices=vertices, edges=edges)
        # kept a named method: perfbench/spans.py wraps it to count graph.graphs_built
        self.__post_init__()

    def __post_init__(self) -> None:
        vertices = tuple(self.vertices)
        edges = tuple(self.edges)
        if not all(map(isinstance, edges, repeat(Edge))):
            edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        names = list(map(_name, edges))
        try:
            vset = set(vertices)
            if (all(vertices) and all(names)
                    and _name_chars("".join(vertices)) and _name_chars("".join(names))
                    and len(vset) == len(vertices) and len(set(names)) == len(names)
                    and vset.issuperset(map(_src, edges)) and vset.issuperset(map(_dst, edges))):
                return
        except TypeError:  # a name or endpoint that is not a str
            pass
        # some check fails: find the first failure in declaration order
        seen: set[str] = set()
        for v in self.vertices:
            _check_name("vertex", v)
            if v in seen:
                raise ValueError(f"duplicate vertex {v!r}")
            seen.add(v)
        enames: set[str] = set()
        for e in self.edges:
            _check_name("edge", e.name)
            if e.name in enames:
                raise ValueError(f"duplicate edge {e.name!r}")
            enames.add(e.name)
            for end in e[1:]:  # seen holds only str, so no unhashable end is looked up
                if not isinstance(end, str) or end not in seen:
                    raise ValueError(f"edge {e.name!r}: unknown vertex {end!r}")

    def __eq__(self, other):
        if type(other) is not Graph:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def _out(self) -> dict[str, tuple[Edge, ...]]:
        m: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            m[e.src].append(e)
        return {v: tuple(es) for v, es in m.items()}

    @cached_property
    def _in(self) -> dict[str, tuple[Edge, ...]]:
        m: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            m[e.dst].append(e)
        return {v: tuple(es) for v, es in m.items()}

    @cached_property
    def _edge_by_name(self) -> dict[str, Edge]:
        return {e.name: e for e in self.edges}

    @cached_property
    def _designated(self) -> dict[str, Edge]:
        """Each emitting vertex's edge of least name: the special edge of the
        Leavitt path algebra's normal-form basis."""
        return {v: min(es, key=lambda e: e.name) for v, es in self._out.items() if es}

    @cached_property
    def _edge_name_dots(self) -> int:
        return max((e.name.count(".") for e in self.edges), default=0)

    def require_vertex(self, v: str) -> None:
        if v not in self.vertex_set:
            raise ValueError(f"unknown vertex {v!r}")

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        """Edges emitted by ``v`` (s^-1(v)), in declaration order."""
        self.require_vertex(v)
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        """Edges received by ``v`` (r^-1(v)), in declaration order."""
        self.require_vertex(v)
        return self._in[v]

    def edge(self, name: str) -> Edge:
        try:
            return self._edge_by_name[name]
        except KeyError:
            raise ValueError(f"unknown edge {name!r}") from None


class PathSeq(NamedTuple("PathSeq", [("source", str), ("edges", tuple[Edge, ...])])):
    """A finite path: its source vertex and its edges, in order.

    The first edge leaves ``source`` and each later edge leaves where the one
    before it ends; with no edges this is the length-0 path at ``source``.
    The edges are checked once, when the path is made, and the range is read
    off the last edge.  A path grown by one edge from a checked path checks
    only the new joint, and a prefix of a checked path needs no check.  Paths
    compare as ``(source, edges)`` tuples; edge names and the dotted label
    are for text.
    """

    __slots__ = ()

    def __new__(cls, source: str, edges: tuple[Edge, ...] = ()) -> "PathSeq":
        at = source
        for e in edges:
            if e.src != at:
                raise ValueError(f"edge {e.name!r} does not start where the path ends")
            at = e.dst
        return tuple.__new__(cls, (source, edges))

    _make = _checked_make

    @property
    def target(self) -> str:
        return self.edges[-1].dst if self.edges else self.source

    def label(self) -> str:
        """Edge names joined with dots; the vertex of a length-0 path."""
        return ".".join(e.name for e in self.edges) or self.source

    def extend(self, e: Edge) -> "PathSeq":
        if e.src != self.target:
            raise ValueError(f"edge {e.name!r} does not start where the path ends")
        return tuple.__new__(PathSeq, (self.source, self.edges + (e,)))

    def drop_last(self) -> "PathSeq":
        if not self.edges:
            raise ValueError("cannot shorten a length-0 path")
        return tuple.__new__(PathSeq, (self.source, self.edges[:-1]))

    def sort_key(self) -> tuple:
        # edge names are unique within a graph, so edges sort as their names do
        return (len(self.edges), self.source, self.edges)

    def __repr__(self) -> str:
        return f"PathSeq({self.label()!r})"


class VertexClassification(NamedTuple):
    sinks: tuple[str, ...]
    sources: tuple[str, ...]


def classify(g: Graph) -> VertexClassification:
    """The sinks, which emit nothing, and the sources, which receive nothing.
    Every other vertex emits finitely many edges, the graph being finite, so
    the singular vertices are exactly the sinks."""
    sinks = sorted(v for v in g.vertices if not g._out[v])
    sources = sorted(v for v in g.vertices if not g._in[v])
    return VertexClassification(tuple(sinks), tuple(sources))


def _validated(g: Graph, xs: Iterable[str]) -> set[str]:
    """``xs`` as a set of vertices; the least unknown name, if any, raises."""
    s = set(xs)
    if not s <= g.vertex_set:
        g.require_vertex(min(s - g.vertex_set, key=str))
    return s


def is_hereditary(g: Graph, hs: Iterable[str]) -> bool:
    h = _validated(g, hs)
    return all(e.dst in h for e in g.edges if e.src in h)


def is_saturated(g: Graph, hs: Iterable[str]) -> bool:
    h = _validated(g, hs)
    for v in g.vertices:
        if v not in h and g._out[v] and all(e.dst in h for e in g._out[v]):
            return False
    return True


def _reach(g: Graph, starts: Iterable[str], backward: bool = False) -> dict[str, int]:
    """Breadth-first search from ``starts``: each vertex they reach, along the
    edges or (``backward``) against them, mapped to its distance."""
    adj, end = (g._in, 1) if backward else (g._out, 2)  # Edge fields: name, src, dst
    dist = dict.fromkeys(starts, 0)
    queue = list(dist)
    for u in queue:  # the queue grows as it is read
        d = dist[u] + 1
        for e in adj[u]:
            if e[end] not in dist:
                dist[e[end]] = d
                queue.append(e[end])
    return dist


def hereditary_closure(g: Graph, xs: Iterable[str]) -> tuple[str, ...]:
    """Smallest hereditary superset: everything reachable from ``xs``."""
    return tuple(sorted(_reach(g, _validated(g, xs))))


def saturated_closure(g: Graph, hs: Iterable[str]) -> tuple[str, ...]:
    """Smallest saturated superset: keep adding regular vertices all of whose
    edge targets already lie inside."""
    h = _validated(g, hs)
    # for each emitting vertex outside h, how many of its edges still leave h
    leaving = {v: sum(e.dst not in h for e in g._out[v])
               for v in g.vertices if v not in h and g._out[v]}
    ready = [v for v, k in leaving.items() if k == 0]
    while ready:
        w = ready.pop()
        h.add(w)
        for e in g._in[w]:
            if e.src in leaving:
                leaving[e.src] -= 1
                if leaving[e.src] == 0:
                    ready.append(e.src)
    return tuple(sorted(h))


def hs_closure(g: Graph, xs: Iterable[str]) -> tuple[str, ...]:
    """Smallest hereditary and saturated superset.  Saturating a hereditary
    set keeps it hereditary, since each added vertex has all its edges
    already inside."""
    return saturated_closure(g, hereditary_closure(g, xs))


# ── text format ──────────────────────────────────────────────────────────────


def parse_graph(text: str) -> Graph:
    vertices: list[str] = []
    edges: list[list[str]] = []
    for lineno, parts in enumerate(map(str.split, text.splitlines()), 1):
        if len(parts) == 4 and parts[0] == "edge":
            edges.append(parts[1:])
        elif len(parts) == 2 and parts[0] == "vertex":
            vertices.append(parts[1])
        elif parts and not parts[0].startswith("#"):  # not blank, not a comment
            raise ValueError(f"line {lineno}: expected 'vertex <name>' or 'edge <name> <src> <dst>'")
    return Graph(vertices, map(tuple.__new__, repeat(Edge), edges))


_PIECE_LINES = 512  # lines per piece of text: a piece is small, a graph may not be


def _serialized(g: Graph) -> Iterator[str]:
    """The canonical text of ``g`` in pieces of at most ``_PIECE_LINES`` lines."""
    for i in range(0, len(g.vertices), _PIECE_LINES):
        yield "".join([f"vertex {v}\n" for v in g.vertices[i:i + _PIECE_LINES]])
    for i in range(0, len(g.edges), _PIECE_LINES):
        yield "".join([f"edge {n} {s} {d}\n" for n, s, d in g.edges[i:i + _PIECE_LINES]])


def serialize_graph(g: Graph) -> str:
    return "".join(_serialized(g))


def fnv1a64(data: bytes, h: int = 0xCBF29CE484222325) -> int:
    """64-bit FNV-1a, eight bytes per step with one mask.

    The low 64 bits of a product depend only on the low 64 bits of its
    factors, and XOR with a byte touches only the low byte, so masking once
    per eight bytes gives the digest of masking after every byte.  ``h`` is
    the hash of the bytes before ``data``, so hashing piece after piece gives
    the hash of the whole.
    """
    it = iter(data)
    for b0, b1, b2, b3, b4, b5, b6, b7 in zip(it, it, it, it, it, it, it, it):
        h = (((((((((h ^ b0) * 0x100000001B3 ^ b1) * 0x100000001B3 ^ b2) * 0x100000001B3 ^ b3)
                  * 0x100000001B3 ^ b4) * 0x100000001B3 ^ b5) * 0x100000001B3 ^ b6)
               * 0x100000001B3 ^ b7) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    for b in data[len(data) - len(data) % 8:]:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def graph_hash(g: Graph) -> str:
    """FNV-1a of the canonical serialization, as 16 hex digits."""
    h = 0xCBF29CE484222325
    for piece in _serialized(g):
        h = fnv1a64(piece.encode("utf-8"), h)
    return format(h, "016x")
