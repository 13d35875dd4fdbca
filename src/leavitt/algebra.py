"""Exact symbolic arithmetic in Leavitt path algebras.

An element is a finite rational combination of terms ``alpha beta*`` where
``alpha`` and ``beta`` are paths with a common range.  ``LpaElement.terms``
maps each pair ``(alpha, beta)`` to its nonzero coefficient; there is no
per-term object and no order on the map.  Products reduce by prefix
cancellation (``e* f = 0`` for distinct edges, ``e* e = r(e)``), so the
product of two terms is again a term or zero.  ``normal_form`` applies the
relation ``v = sum_{s(e)=v} e e*`` at the designated (least-named) edge of
each emitting vertex, rewriting every term whose two paths share that
designated final edge:

    alpha.d d*.beta*  ->  alpha beta* - sum_{e in s^-1(v), e != d} alpha.e e*.beta*

with ``v = s(d)``.  The surviving terms form a spanning basis, so two
elements are equal in the algebra exactly when their normal forms have the
same term map.

Everything is exact: a coefficient is an ``int`` when it is integral and a
``fractions.Fraction`` only when it is not, so each value has one spelling
and families with integer coefficients multiply on plain ints.  Structural
``==`` on elements compares term maps; use ``equals`` for equality in the
algebra.  Terms are ordered only in text, by :func:`format_element`.
"""

from __future__ import annotations

import operator
import re
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .graph import Edge, Graph, PathSeq, _checked_make, _decimal, _digits, _frozen

__all__ = [
    "LpaElement", "element", "vertex_element", "star", "normal_form", "equals", "degree",
    "CkFamily", "CkReport", "verify_ck_family",
    "parse_element", "format_element", "parse_family", "format_family",
]


class LpaElement:
    """A finite sum of terms: ``terms`` maps ``(alpha, beta)`` to the nonzero
    coefficient of ``alpha beta*``, where ``r(alpha) = r(beta)``; the
    coefficient is an ``int``, or a ``Fraction`` whose denominator is not 1.

    Build elements from outside with :func:`element`, or from text with
    :func:`parse_element`.  ``LpaElement(terms)`` takes the map as it is and
    does not check it.  Every operation returns a fresh map and never changes
    one it was given.  Elements compare by their term maps; they hold a dict,
    so they are not hashable.
    """

    __slots__ = ("terms",)
    __hash__ = None
    __setattr__ = __delattr__ = _frozen

    def __init__(self, terms: dict[tuple[PathSeq, PathSeq], int | Fraction] | None = None) -> None:
        object.__setattr__(self, "terms", {} if terms is None else terms)

    def __reduce__(self):
        return LpaElement, (self.terms,)

    def __eq__(self, other):
        if type(other) is not LpaElement:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "LpaElement") -> "LpaElement":
        return _nonzero(_combine(self, other, operator.add))

    def __neg__(self) -> "LpaElement":
        return self.scaled(-1)

    def __sub__(self, other: "LpaElement") -> "LpaElement":
        return _nonzero(_combine(self, other, operator.sub))

    def __mul__(self, other):
        if not isinstance(other, LpaElement):
            return self.scaled(other)
        return _nonzero(_product_into({}, self, other))

    def __rmul__(self, other) -> "LpaElement":
        return self.scaled(other)

    def scaled(self, c) -> "LpaElement":
        c = _scalar(c)
        return _nonzero({k: v * c for k, v in self.terms.items()})

    def __repr__(self) -> str:
        return f"LpaElement({format_element(self)!r})"


def _scalar(c) -> int | Fraction:
    """``c`` as a coefficient: an ``int``, or a ``Fraction`` that is not integral."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"a coefficient is an int or a Fraction, not {type(c).__name__}")


def _nonzero(acc: dict) -> LpaElement:
    """The element of an accumulated term map, its zero coefficients dropped
    and each integral ``Fraction`` turned into its ``int``."""
    return LpaElement({k: c if type(c) is int else _scalar(c) for k, c in acc.items() if c})


def _combine(x: LpaElement, y: LpaElement, op) -> dict:
    """The term map of ``x + y`` or ``x - y`` (``op`` is ``operator.add`` or ``sub``), zeros kept."""
    acc = dict(x.terms)
    for k, c in y.terms.items():
        acc[k] = op(acc.get(k, 0), c)
    return acc


def _product_into(acc: dict, x: LpaElement, y: LpaElement) -> dict:
    """Add the terms of ``x * y`` into the term map ``acc``, and return it."""
    for (alpha, beta), c in x.terms.items():
        for (gamma, delta), d in y.terms.items():
            key = _term_product(alpha, beta, gamma, delta)
            if key is not None:
                acc[key] = acc.get(key, 0) + c * d
    return acc


def _term_product(alpha: PathSeq, beta: PathSeq, gamma: PathSeq, delta: PathSeq):
    """(alpha beta*)(gamma delta*) by prefix cancellation: the key of the
    product term, or None when it is 0.  A longer path is a checked path grown
    by the rest of the other inner path, so only the new joint is checked."""
    if beta.source != gamma.source:
        return None
    m, k = len(beta.edges), len(gamma.edges)
    if m <= k:
        if beta.edges != gamma.edges[:m]:
            return None
        if m < k:
            if alpha.target != beta.target:
                raise ValueError(f"edge {gamma.edges[m].name!r} does not start where the path ends")
            alpha = tuple.__new__(PathSeq, (alpha.source, alpha.edges + gamma.edges[m:]))
        return alpha, delta
    if gamma.edges != beta.edges[:k]:
        return None
    if delta.target != gamma.target:
        raise ValueError(f"edge {beta.edges[k].name!r} does not start where the path ends")
    return alpha, tuple.__new__(PathSeq, (delta.source, delta.edges + beta.edges[k:]))


def element(terms: Iterable[tuple]) -> LpaElement:
    """Build an element from ``(coeff, alpha, beta)`` triples, each ``coeff``
    an ``int`` or a ``Fraction``: check each term, merge like terms and drop
    the sums that cancel."""
    acc: dict[tuple[PathSeq, PathSeq], int | Fraction] = {}
    for coeff, alpha, beta in terms:
        coeff = _scalar(coeff)
        if coeff == 0:
            raise ValueError("zero coefficient")
        if alpha.target != beta.target:
            raise ValueError("the paths of a term must share their range")
        key = (alpha, beta)
        acc[key] = acc.get(key, 0) + coeff
    return _nonzero(acc)


def vertex_element(g: Graph, v: str) -> LpaElement:
    g.require_vertex(v)
    p = PathSeq(v)
    return LpaElement({(p, p): 1})


def star(x: LpaElement) -> LpaElement:
    """The involution: (c alpha beta*)* = c beta alpha*."""
    return LpaElement({(b, a): c for (a, b), c in x.terms.items()})


def normal_form(g: Graph, x: LpaElement) -> LpaElement:
    """Rewrite to the spanning-basis representative.

    Terminates because each rewrite trades one term for a strictly shorter
    one plus tail-irreducible ones of equal length; the result is
    independent of rewrite order (checked by the confluence tests).
    """
    return _nonzero(_rewritten(g, list(x.terms.items())))


def _rewritten(g: Graph, work: list) -> dict:
    """The term map of the ``(key, coeff)`` pairs in ``work`` rewritten to the
    normal form; sums that cancel stay in it as zeros."""
    designated, out = g._designated, g._out
    acc: dict[tuple[PathSeq, PathSeq], int | Fraction] = {}
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
    return acc


def _cancels(g: Graph, acc: dict) -> bool:
    """Whether the term map ``acc`` is 0 in the algebra: its nonzero terms
    are rewritten toward the normal form, where every coefficient cancels."""
    work = [kc for kc in acc.items() if kc[1]]
    return not work or not any(_rewritten(g, work).values())


def equals(g: Graph, x: LpaElement, y: LpaElement) -> bool:
    """Equality in the algebra, as one zero test: the term map of ``x - y`` is
    rewritten toward the normal form, and every coefficient must cancel.  No
    element is built for the difference or its normal form.
    ``verify_ck_family`` costs one accumulation per relation whose product
    can be nonzero (a map seeded with minus the expected side, the product
    added into it) and one such zero test each."""
    return _cancels(g, _combine(x, y, operator.sub))


def degree(g: Graph, x: LpaElement, weights: Mapping[str, int]) -> int | None:
    """Total weight if ``normal_form(x)`` is homogeneous, else None.

    A term weighs the sum over its left path minus the sum over its right
    path; the zero element has degree 0 by convention.
    """
    nf = normal_form(g, x)
    if not nf:
        return 0
    try:
        degs = {sum(weights[e.name] for e in left.edges) - sum(weights[e.name] for e in right.edges)
                for left, right in nf.terms}
    except KeyError as exc:
        raise ValueError(f"weight map is missing edge {exc.args[0]!r}") from None
    return degs.pop() if len(degs) == 1 else None


# ── Cuntz-Krieger family verification ─────────────────────────────────────────


class CkFamily(NamedTuple("CkFamily", [("vertex_images", dict[str, LpaElement]),
                                       ("edge_images", dict[str, LpaElement])])):
    """Images of a target graph's generators inside a host algebra."""

    __slots__ = ()

    def __new__(cls, vertex_images: Mapping[str, LpaElement],
                edge_images: Mapping[str, LpaElement]) -> "CkFamily":
        return tuple.__new__(cls, (dict(vertex_images), dict(edge_images)))

    _make = _checked_make


class CkReport(NamedTuple):
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _meeting(lefts: list[LpaElement], rights: list[LpaElement]) -> list[set[int]]:
    """For each left factor, the positions of the right factors it meets.

    A term product ``(alpha beta*)(gamma delta*)`` is nonzero only when the
    inner paths share their source and ``gamma`` extends ``beta`` or is a
    proper prefix of it, so ``x * y`` is exactly zero unless some term of
    ``x`` meets some term of ``y``.  The right factors' inner paths go into
    one trie per source; each ``beta`` walks its trie once, meeting the paths
    that end before it does and, at its own end, all that pass through.
    """
    def node():  # (children by edge, positions ending here, passing through)
        return defaultdict(node), set(), set()

    roots = defaultdict(node)
    for j, y in enumerate(rights):
        for gamma, _ in y.terms:
            at = roots[gamma.source]
            at[2].add(j)
            for e in gamma.edges:
                at = at[0][e]
                at[2].add(j)
            at[1].add(j)
    off = ({}, (), ())  # where a walk goes that leaves the trie
    out = []
    for x in lefts:
        meets: set[int] = set()
        for _, beta in x.terms:
            at = roots.get(beta.source, off)
            for e in beta.edges:
                meets.update(at[1])
                at = at[0].get(e, off)
            meets.update(at[2])
        out.append(meets)
    return out


def verify_ck_family(target: Graph, family: CkFamily, host: Graph) -> CkReport:
    """Check that the family satisfies the defining relations of the target's
    algebra inside the host algebra.

    Checks that vertex images are nonzero (by their normal forms) pairwise
    orthogonal idempotents; edge images absorb their endpoint idempotents on
    both sides (and so do their stars); distinct edges are *-orthogonal with
    ``T_e* T_e`` the range idempotent; and every emitting target vertex splits
    as the sum of ``T_e T_e*`` over its edges.  Each relation is one
    accumulation and one zero test (see :func:`equals`).  The report names
    each failed relation.
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

    def holds(want: LpaElement | None, *products: tuple[LpaElement, LpaElement]) -> bool:
        # the sum of the products equals want (None for 0): one term map,
        # seeded with -want, takes every product, and all of it must cancel
        acc = {} if want is None else {k: -c for k, c in want.terms.items()}
        for x, y in products:
            _product_into(acc, x, y)
        return _cancels(host, acc)

    def pairs(kind, names, lefts, rights, diagonal) -> None:
        # lefts[i] * rights[j] must be diagonal[i] when i == j and 0 otherwise.
        # An off-diagonal pair whose factors do not meet multiplies to exactly
        # 0, as it should; visiting the rest in index order keeps the failures
        # in (i, j) order.
        for i, meets in enumerate(_meeting(lefts, rights)):
            for j in sorted(meets | {i}):
                if not holds(diagonal[i] if i == j else None, (lefts[i], rights[j])):
                    fails.append(f"{kind}: {names[i]},{names[j]}")

    for v in vs:
        if not normal_form(host, q[v]):
            fails.append(f"nonzero: vertex image {v} reduces to 0")
    qs = [q[v] for v in vs]
    pairs("orthogonal idempotents", vs, qs, qs, qs)
    for e in es:
        te, se = t[e.name], ts[e.name]
        if not holds(te, (q[e.src], te)) or not holds(te, (te, q[e.dst])):
            fails.append(f"absorption: {e.name}")
        if not holds(se, (q[e.dst], se)) or not holds(se, (se, q[e.src])):
            fails.append(f"ghost absorption: {e.name}")
    names = [e.name for e in es]
    pairs("CK-1", names, [ts[n] for n in names], [t[n] for n in names], [q[e.dst] for e in es])
    for v in vs:
        outs = target.out_edges(v)
        if outs and not holds(q[v], *((t[e.name], ts[e.name]) for e in outs)):
            fails.append(f"CK-2: {v}")
    return CkReport(tuple(fails))


# ── element text syntax ───────────────────────────────────────────────────────
#
#   3/2 * a.b ; c   means  (3/2) (ab) c*
#
# Terms are separated by + and -; a term is  [rational *] path [; path]  where
# a path is a vertex name or edge names joined with dots, and a token with
# two such readings is refused as ambiguous.  Whitespace is ignored.  When
# the ghost path is omitted it is the length-0 path at the range of the real
# one.  The empty text denotes zero; "0" is a name like any other.

_COEFF_RE = re.compile(r"([0-9]+(?:/[0-9]+)?)\*")
_TERMS_RE = re.compile(r"[+-]?[^+-]+(?:[+-][^+-]+)*")  # no term is empty
_SIGNED_TERM_RE = re.compile(r"([+-]?)([^+-]+)")


def _parse_path(g: Graph, token: str) -> PathSeq:
    """The one path ``token`` names: a vertex (its length-0 path) or edge
    names joined with dots.  A vertex name counts as one more reading, so a
    token with no reading or with two, of either kind, raises."""
    if not token:
        raise ValueError("empty path")
    count, path = (1, PathSeq(token)) if token in g.vertex_set else (0, None)
    by_name, dots = g._edge_by_name, g._edge_name_dots
    if not dots:  # no name holds a dot, so the one edge reading cuts at every dot
        edges = [by_name.get(name) for name in token.split(".")]
        if None not in edges:
            try:
                count, path = count + 1, PathSeq(edges[0].src, tuple(edges))
            except ValueError:  # the edges do not connect
                pass
    else:
        n = len(token)
        cuts = [i for i, ch in enumerate(token) if ch == "."] + [n]
        # Names may contain dots, so a reading cuts the token at some of its
        # dots.  Dynamic programming over (where the next name starts, target
        # of the last edge, None before the first) counts the readings, capped
        # at 2, and keeps a back pointer (start, last, edge) to one of them.
        # A name spans at most ``dots + 1`` dot-separated pieces, so the time
        # is linear in the token's length however many readings there are.
        reads: dict[int, dict[str | None, tuple[int, tuple | None]]] = {0: {None: (1, None)}}
        for i, start in enumerate([0] + [c + 1 for c in cuts[:-1]]):
            here = reads.get(start, {})
            for end in cuts[i:i + dots + 1]:  # every cut a name could reach
                e = by_name.get(token[start:end])
                if e is None:
                    continue
                nxt = reads.setdefault(end + 1, {})
                for last, (k, _) in here.items():
                    if last is None or last == e.src:
                        seen = nxt.get(e.dst)
                        if seen is None:
                            nxt[e.dst] = (k, (start, last, e))
                        else:
                            nxt[e.dst] = (min(2, seen[0] + k), seen[1])
        complete = reads.get(n + 1, {})
        count += sum(k for k, _ in complete.values())
        if count == 1 and complete:  # the one reading is a path of edges: follow it back
            [(_, back)] = complete.values()
            edges = []
            while back is not None:
                start, last, e = back
                edges.append(e)
                back = reads[start][last][1]
            path = PathSeq(edges[-1].src, tuple(reversed(edges)))
    if count == 1:
        return path
    raise ValueError(f"ambiguous path {token!r}" if count else f"cannot read {token!r} as a vertex or path")


def parse_element(g: Graph, text: str) -> LpaElement:
    s = "".join(text.split())
    if not s:
        return LpaElement()
    if not _TERMS_RE.fullmatch(s):
        raise ValueError("empty term")
    out: list[tuple[int | Fraction, PathSeq, PathSeq]] = []
    for sign, term in _SIGNED_TERM_RE.findall(s):
        coeff = -1 if sign == "-" else 1
        m = _COEFF_RE.match(term)
        if m:
            num, _, den = m.group(1).partition("/")
            if not (den := _decimal(den or "1")):
                raise ValueError(f"coefficient {m.group(1)!r} has a zero denominator")
            coeff *= Fraction(_decimal(num), den)
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
    the canonical order (shorter paths first, then by source and edge names);
    zero is the empty text."""
    if not x.terms:
        return ""
    parts: list[str] = []
    for (left, right), c in sorted(x.terms.items(), key=_term_order):
        body = left.label()
        if right.edges:
            body += f" ; {right.label()}"
        mag = abs(c)
        if mag != 1:
            den = "" if mag.denominator == 1 else f"/{_digits(mag.denominator)}"
            body = f"{_digits(mag.numerator)}{den} * {body}"
        parts.append(("+ " if c > 0 else "- ") + body)
    text = " ".join(parts)  # "+ a - b": the first sign is written "" or "-"
    return text[2:] if text[0] == "+" else "-" + text[2:]


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
            raise ValueError(f"line {lineno}: expected 'vertex <name> = <element>' or "
                             "'edge <name> <src> <dst> = <element>'")
    return Graph(tuple(vertices), tuple(edges)), CkFamily(vimg, eimg)


def format_family(target: Graph, family: CkFamily) -> str:
    """Write a family in the file format read back by :func:`parse_family`."""
    lines = [f"vertex {v} = {format_element(family.vertex_images[v])}\n" for v in target.vertices]
    lines += [f"edge {e.name} {e.src} {e.dst} = {format_element(family.edge_images[e.name])}\n"
              for e in target.edges]
    return "".join(lines)
