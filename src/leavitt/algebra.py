"""Exact symbolic arithmetic in Leavitt path algebras.

An element is a finite rational combination of terms ``alpha beta*`` where
``alpha`` and ``beta`` are paths with a common range.  ``LpaElement.terms``
maps each pair ``(alpha, beta)`` to its nonzero ``Fraction`` coefficient;
there is no per-term object and no order on the map.  Products reduce by
prefix cancellation (``e* f = 0`` for distinct edges, ``e* e = r(e)``), so the
product of two terms is again a term or zero.  ``normal_form`` applies the
relation ``v = sum_{s(e)=v} e e*`` at the designated (least-named) edge of
each emitting vertex, rewriting every term whose two paths share that
designated final edge:

    alpha.d d*.beta*  ->  alpha beta* - sum_{e in s^-1(v), e != d} alpha.e e*.beta*

with ``v = s(d)``.  The surviving terms form a spanning basis, so two
elements are equal in the algebra exactly when their normal forms have the
same term map.

Coefficients are ``fractions.Fraction`` — everything is exact.  Structural
``==`` on elements compares term maps; use ``equals`` for equality in the
algebra.  Terms are ordered only in text, by :func:`format_element`.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .graph import Edge, Graph, PathSeq, _frozen, path_in

__all__ = [
    "LpaElement",
    "zero",
    "element",
    "vertex_element",
    "path_element",
    "monomial",
    "star",
    "designated_edge",
    "normal_form",
    "equals",
    "degree",
    "CkFamily",
    "CkReport",
    "verify_ck_family",
    "parse_element",
    "format_element",
    "parse_family",
    "format_family",
]


class LpaElement:
    """A finite sum of terms: ``terms`` maps ``(alpha, beta)`` to the nonzero
    coefficient of ``alpha beta*``, where ``r(alpha) = r(beta)``.

    Build elements from outside with :func:`element`, or from text with
    :func:`parse_element`.  ``LpaElement(terms)`` takes the map as it is and
    does not check it.  Every operation returns a fresh map and never changes
    one it was given.  Elements compare by their term maps; they hold a dict,
    so they are not hashable.
    """

    __slots__ = ("terms",)
    __hash__ = None
    __setattr__ = __delattr__ = _frozen

    def __init__(self, terms: dict[tuple[PathSeq, PathSeq], Fraction] | None = None) -> None:
        object.__setattr__(self, "terms", {} if terms is None else terms)

    def __eq__(self, other):
        if type(other) is not LpaElement:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "LpaElement") -> "LpaElement":
        return _combine(self, other, operator.add)

    def __neg__(self) -> "LpaElement":
        return self.scaled(-1)

    def __sub__(self, other: "LpaElement") -> "LpaElement":
        return _combine(self, other, operator.sub)

    def __mul__(self, other):
        if not isinstance(other, LpaElement):
            return self.scaled(other)
        acc: dict[tuple[PathSeq, PathSeq], Fraction] = {}
        for (alpha, beta), c in self.terms.items():
            for (gamma, delta), d in other.terms.items():
                key = _term_product(alpha, beta, gamma, delta)
                if key is not None:
                    acc[key] = acc.get(key, 0) + c * d
        return _nonzero(acc)

    def __rmul__(self, other) -> "LpaElement":
        return self.scaled(other)

    def scaled(self, c) -> "LpaElement":
        c = Fraction(c)
        if c == 0:
            return LpaElement()
        return LpaElement({k: v * c for k, v in self.terms.items()})

    def __repr__(self) -> str:
        return f"LpaElement({format_element(self)!r})"


def _nonzero(acc: dict) -> LpaElement:
    """The element of an accumulated term map, its zero coefficients dropped."""
    return LpaElement({k: c for k, c in acc.items() if c})


def _combine(x: LpaElement, y: LpaElement, op) -> LpaElement:
    """``x + y`` or ``x - y``, as ``op`` is ``operator.add`` or ``operator.sub``."""
    acc = dict(x.terms)
    for k, c in y.terms.items():
        acc[k] = op(acc.get(k, 0), c)
    return _nonzero(acc)


def _term_product(alpha: PathSeq, beta: PathSeq, gamma: PathSeq, delta: PathSeq):
    """(alpha beta*)(gamma delta*) by prefix cancellation: the key of the
    product term, or None when it is 0."""
    if beta.source != gamma.source:
        return None
    m, k = len(beta.edges), len(gamma.edges)
    if m <= k:
        if beta.edges != gamma.edges[:m]:
            return None
        if m < k:
            alpha = PathSeq(alpha.source, alpha.edges + gamma.edges[m:])
        return alpha, delta
    if gamma.edges != beta.edges[:k]:
        return None
    return alpha, PathSeq(delta.source, delta.edges + beta.edges[k:])


def zero() -> LpaElement:
    return LpaElement()


def element(terms: Iterable[tuple]) -> LpaElement:
    """Build an element from ``(coeff, alpha, beta)`` triples: check each
    term, merge like terms and drop the sums that cancel."""
    acc: dict[tuple[PathSeq, PathSeq], Fraction] = {}
    for coeff, alpha, beta in terms:
        coeff = Fraction(coeff)
        if coeff == 0:
            raise ValueError("zero coefficient")
        if alpha.target != beta.target:
            raise ValueError("monomial paths must share their range")
        key = (alpha, beta)
        acc[key] = acc.get(key, 0) + coeff
    return _nonzero(acc)


def vertex_element(g: Graph, v: str) -> LpaElement:
    g.require_vertex(v)
    p = PathSeq(v)
    return LpaElement({(p, p): Fraction(1)})


def path_element(g: Graph, names: Iterable[str]) -> LpaElement:
    """The element of a real path (no ghost part): alpha r(alpha)*."""
    p = path_in(g, names)
    return LpaElement({(p, PathSeq(p.target)): Fraction(1)})


def monomial(g: Graph, coeff, alpha: Iterable[str], beta: Iterable[str]) -> LpaElement:
    """coeff * alpha beta* from edge-name sequences (a bare name means a vertex)."""

    def resolve(part) -> PathSeq:
        if isinstance(part, str):
            g.require_vertex(part)
            return PathSeq(part)
        return path_in(g, part)

    return element([(coeff, resolve(alpha), resolve(beta))])


def star(x: LpaElement) -> LpaElement:
    """The involution: (c alpha beta*)* = c beta alpha*."""
    return LpaElement({(b, a): c for (a, b), c in x.terms.items()})


def designated_edge(g: Graph, v: str) -> str | None:
    """The lexicographically least edge emitted by ``v`` (None for sinks)."""
    g.require_vertex(v)
    d = g._designated.get(v)
    return None if d is None else d.name


def normal_form(g: Graph, x: LpaElement) -> LpaElement:
    """Rewrite to the spanning-basis representative.

    Terminates because each rewrite trades one term for a strictly shorter
    one plus tail-irreducible ones of equal length; the result is
    independent of rewrite order (checked by the confluence tests).
    """
    designated, out = g._designated, g._out
    work = list(x.terms.items())
    acc: dict[tuple[PathSeq, PathSeq], Fraction] = {}
    while work:
        key, c = work.pop()
        a, b = key
        if a.edges and b.edges:
            f = a.edges[-1]
            if b.edges[-1] == f and designated.get(f.src) == f:
                a0, b0 = a.drop_last(), b.drop_last()
                work.append(((a0, b0), c))
                work.extend(((a0.extend(e), b0.extend(e)), -c) for e in out[f.src] if e != f)
                continue
        acc[key] = acc.get(key, 0) + c
    return _nonzero(acc)


def equals(g: Graph, x: LpaElement, y: LpaElement) -> bool:
    """Equality in the algebra: the difference reduces to zero."""
    return not normal_form(g, x - y)


def degree(g: Graph, x: LpaElement, weights: Mapping[str, int]) -> int | None:
    """Total weight if ``normal_form(x)`` is homogeneous, else None.

    A term weighs the sum over its left path minus the sum over its right
    path; the zero element has degree 0 by convention.
    """
    nf = normal_form(g, x)
    if not nf:
        return 0
    degs = set()
    for left, right in nf.terms:
        try:
            d = sum(weights[e.name] for e in left.edges) - sum(
                weights[e.name] for e in right.edges
            )
        except KeyError as exc:
            raise ValueError(f"weight map is missing edge {exc.args[0]!r}") from None
        degs.add(d)
    return degs.pop() if len(degs) == 1 else None


# ── Cuntz-Krieger family verification ─────────────────────────────────────────


class CkFamily(NamedTuple("CkFamily", [("vertex_images", dict[str, LpaElement]),
                                       ("edge_images", dict[str, LpaElement])])):
    """Images of a target graph's generators inside a host algebra."""

    __slots__ = ()

    def __new__(cls, vertex_images: Mapping[str, LpaElement],
                edge_images: Mapping[str, LpaElement]) -> "CkFamily":
        return tuple.__new__(cls, (dict(vertex_images), dict(edge_images)))


class CkReport(NamedTuple):
    ok: bool
    failures: tuple[str, ...]


def _meeting(lefts: list[LpaElement], rights: list[LpaElement]) -> list[set[int]]:
    """For each left factor, the positions of the right factors it meets.

    A term product ``(alpha beta*)(gamma delta*)`` is nonzero only when the
    inner paths share their source and ``gamma`` extends ``beta`` or is a
    proper prefix of it, so ``x * y`` is exactly zero unless some term of
    ``x`` meets some term of ``y``.  The right factors' inner paths are
    indexed by ``(source, edges)`` and by every prefix of ``edges``.
    """
    whole: dict[tuple, set[int]] = {}  # (source, gamma's edges) -> positions
    through: dict[tuple, set[int]] = {}  # (source, a prefix of them) -> positions
    for j, y in enumerate(rights):
        for gamma, _ in y.terms:
            s, path = gamma.source, gamma.edges
            whole.setdefault((s, path), set()).add(j)
            for k in range(len(path) + 1):
                through.setdefault((s, path[:k]), set()).add(j)
    out = []
    for x in lefts:
        meets: set[int] = set()
        for _, beta in x.terms:
            s, path = beta.source, beta.edges
            meets.update(through.get((s, path), ()))
            for k in range(len(path)):
                meets.update(whole.get((s, path[:k]), ()))
        out.append(meets)
    return out


def verify_ck_family(target: Graph, family: CkFamily, host: Graph) -> CkReport:
    """Check that the family satisfies the defining relations of the target's
    algebra inside the host algebra.

    Checks, term by term via normal forms: vertex images are nonzero pairwise
    orthogonal idempotents; edge images absorb their endpoint idempotents on
    both sides (and so do their stars); distinct edges are *-orthogonal with
    ``T_e* T_e`` the range idempotent; and every emitting target vertex splits
    as the sum of ``T_e T_e*`` over its edges.  The report names each failed
    relation.
    """
    missing = [v for v in target.vertices if v not in family.vertex_images]
    missing += [e.name for e in target.edges if e.name not in family.edge_images]
    if missing:
        raise ValueError(f"family is missing images for: {', '.join(sorted(missing))}")

    vs, es = target.vertices, target.edges
    q = {v: family.vertex_images[v] for v in vs}
    t = {e.name: family.edge_images[e.name] for e in es}
    ts = {name: star(te) for name, te in t.items()}
    fails: list[str] = []

    def pairs(kind, names, lefts, rights, diagonal) -> None:
        # lefts[i] * rights[j] must be diagonal[i] when i == j and 0 otherwise.
        # An off-diagonal pair whose factors do not meet multiplies to exactly
        # 0, as it should; visiting the rest in index order keeps the failures
        # in (i, j) order.
        for i, meets in enumerate(_meeting(lefts, rights)):
            for j in sorted(meets | {i}):
                if not equals(host, lefts[i] * rights[j], diagonal[i] if i == j else zero()):
                    fails.append(f"{kind}: {names[i]},{names[j]}")

    for v in vs:
        if not normal_form(host, q[v]):
            fails.append(f"nonzero: vertex image {v} reduces to 0")
    qs = [q[v] for v in vs]
    pairs("orthogonal idempotents", vs, qs, qs, qs)
    for e in es:
        te = t[e.name]
        if not equals(host, q[e.src] * te, te) or not equals(host, te * q[e.dst], te):
            fails.append(f"absorption: {e.name}")
        se = ts[e.name]
        if not equals(host, q[e.dst] * se, se) or not equals(host, se * q[e.src], se):
            fails.append(f"ghost absorption: {e.name}")
    names = [e.name for e in es]
    pairs("CK-1", names, [ts[n] for n in names], [t[n] for n in names], [q[e.dst] for e in es])
    for v in vs:
        outs = target.out_edges(v)
        if not outs:
            continue
        total = zero()
        for e in outs:
            total = total + t[e.name] * ts[e.name]
        if not equals(host, q[v], total):
            fails.append(f"CK-2: {v}")
    return CkReport(ok=not fails, failures=tuple(fails))


# ── element text syntax ───────────────────────────────────────────────────────
#
#   3/2 * a.b ; c   means  (3/2) (ab) c*
#
# Terms are separated by + and -; a term is  [rational *] path [; path]  where
# a path is a vertex name or edge names joined with dots.  Whitespace is
# ignored.  When the ghost path is omitted it is the length-0 path at the
# range of the real one.  "0" (no vertex of that name) and "" denote zero.

_COEFF_RE = re.compile(r"(\d+(?:/\d+)?)\*")
_TERMS_RE = re.compile(r"[+-]?[^+-]+(?:[+-][^+-]+)*")  # no term is empty
_SIGNED_TERM_RE = re.compile(r"([+-]?)([^+-]+)")


def _parse_path(g: Graph, token: str) -> PathSeq:
    if not token:
        raise ValueError("empty path")
    if token in g.vertex_set:
        return PathSeq(token)
    by_name, longest = g._edge_by_name, g._longest_edge_name
    n = len(token)
    cuts = [i for i, ch in enumerate(token) if ch == "."] + [n]
    # Names may contain dots, so a reading cuts the token at some of its dots.
    # Dynamic programming over (where the next name starts, target of the last
    # edge, None before the first) counts the readings, capped at 2, and keeps
    # a back pointer (start, last, edge) to one of them.  A name spans at most
    # ``longest`` characters, so the time is linear in the token's length
    # however many readings there are.
    reads: dict[int, dict[str | None, tuple[int, tuple | None]]] = {0: {None: (1, None)}}
    for i, start in enumerate([0] + [c + 1 for c in cuts[:-1]]):
        here = reads.get(start, {})
        for end in cuts[i:i + longest + 1]:  # every cut a name could reach
            if end - start > longest:
                break
            e = by_name.get(token[start:end])
            if e is None:
                continue
            nxt = reads.setdefault(end + 1, {})
            for last, (count, _) in here.items():
                if last is None or last == e.src:
                    seen = nxt.get(e.dst)
                    if seen is None:
                        nxt[e.dst] = (count, (start, last, e))
                    else:
                        nxt[e.dst] = (min(2, seen[0] + count), seen[1])
    complete = reads.get(n + 1, {})
    if not complete:
        raise ValueError(f"cannot read {token!r} as a vertex or path")
    if sum(count for count, _ in complete.values()) > 1:
        raise ValueError(f"ambiguous path {token!r}")
    [(_, back)] = complete.values()
    edges: list[Edge] = []
    while back is not None:
        start, last, e = back
        edges.append(e)
        back = reads[start][last][1]
    return PathSeq.of(reversed(edges))


def parse_element(g: Graph, text: str) -> LpaElement:
    s = "".join(text.split())
    if not s or (s == "0" and "0" not in g.vertex_set):
        return zero()
    if not _TERMS_RE.fullmatch(s):
        raise ValueError("empty term")
    out: list[tuple[Fraction, PathSeq, PathSeq]] = []
    for sign, term in _SIGNED_TERM_RE.findall(s):
        coeff = Fraction(-1 if sign == "-" else 1)
        m = _COEFF_RE.match(term)
        if m:
            try:
                coeff *= Fraction(m.group(1))
            except ZeroDivisionError:
                raise ValueError(f"coefficient {m.group(1)!r} has a zero denominator") from None
            term = term[m.end():]
        if ";" in term:
            a_text, _, b_text = term.partition(";")
            alpha = _parse_path(g, a_text)
            beta = _parse_path(g, b_text)
        else:
            alpha = _parse_path(g, term)
            beta = PathSeq(alpha.target)
        if alpha.target != beta.target:
            raise ValueError(f"term {term!r}: paths do not share a range")
        out.append((coeff, alpha, beta))
    return element(out)


def _term_order(item) -> tuple:
    (left, right), _ = item
    return (left.sort_key(), right.sort_key())


def format_element(x: LpaElement) -> str:
    """The element in the syntax read by :func:`parse_element`, its terms in
    the canonical order (shorter paths first, then by source and edge names)."""
    if not x.terms:
        return "0"
    parts: list[str] = []
    for i, ((left, right), c) in enumerate(sorted(x.terms.items(), key=_term_order)):
        body = left.label()
        if right.edges:
            body += f" ; {right.label()}"
        mag = abs(c)
        if mag != 1:
            body = f"{mag} * {body}"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def parse_family(text: str, host: Graph) -> tuple[Graph, CkFamily]:
    """Read a family file: a target graph plus images of its generators.

    Line format (elements in the host algebra's element syntax)::

        vertex <name> = <element>
        edge <name> <src> <dst> = <element>
    """
    vertices: list[str] = []
    edges: list[Edge] = []
    vimg: dict[str, LpaElement] = {}
    eimg: dict[str, LpaElement] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rhs = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected '= <element>'")
        parts = head.split()
        if len(parts) == 2 and parts[0] == "vertex":
            if parts[1] in vimg:
                raise ValueError(f"line {lineno}: duplicate vertex {parts[1]!r}")
            vertices.append(parts[1])
            vimg[parts[1]] = parse_element(host, rhs.strip())
        elif len(parts) == 4 and parts[0] == "edge":
            if parts[1] in eimg:
                raise ValueError(f"line {lineno}: duplicate edge {parts[1]!r}")
            edges.append(Edge(parts[1], parts[2], parts[3]))
            eimg[parts[1]] = parse_element(host, rhs.strip())
        else:
            raise ValueError(
                f"line {lineno}: expected 'vertex <name> = <element>' or "
                "'edge <name> <src> <dst> = <element>'"
            )
    return Graph(tuple(vertices), tuple(edges)), CkFamily(vimg, eimg)


def format_family(target: Graph, family: CkFamily) -> str:
    """Write a family in the file format read back by :func:`parse_family`."""
    lines = [
        f"vertex {v} = {format_element(family.vertex_images[v])}"
        for v in target.vertices
    ]
    lines += [
        f"edge {e.name} {e.src} {e.dst} = {format_element(family.edge_images[e.name])}"
        for e in target.edges
    ]
    return "".join(line + "\n" for line in lines)
