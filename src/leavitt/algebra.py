"""Exact symbolic arithmetic in Leavitt path algebras.

Elements are finite rational combinations of monomials ``alpha beta*`` where
``alpha`` and ``beta`` are paths with a common range.  Products reduce by
prefix cancellation (``e* f = 0`` for distinct edges, ``e* e = r(e)``), so the
product of two monomials is again a monomial or zero.  ``normal_form`` applies
the relation ``v = sum_{s(e)=v} e e*`` at the designated (lexicographically
least) edge of each emitting vertex, rewriting every monomial whose two paths
share that designated final edge:

    alpha.d d*.beta*  ->  alpha beta* - sum_{e in s^-1(v), e != d} alpha.e e*.beta*

with ``v = s(d)``.  The surviving monomials form a spanning basis, so two
elements are equal in the algebra exactly when their normal forms coincide
term by term.

Coefficients are ``fractions.Fraction`` — everything is exact.  Structural
``==`` on elements compares representations; use ``equals`` for equality in
the algebra.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .graph import Edge, Graph, PathSeq, path_in

__all__ = [
    "Monomial",
    "LpaElement",
    "zero",
    "element",
    "vertex_element",
    "path_element",
    "monomial",
    "mono_mul",
    "star",
    "designated_edge",
    "normal_form",
    "equals",
    "NON_HOMOGENEOUS",
    "standard_weights",
    "degree",
    "omega",
    "CkFamily",
    "CkReport",
    "verify_ck_family",
    "parse_element",
    "format_element",
    "parse_family",
    "format_family",
]


@dataclass(frozen=True)
class Monomial:
    """``coeff * alpha beta*`` with ``r(alpha) = r(beta)`` and ``coeff != 0``."""

    coeff: Fraction
    left: PathSeq
    right: PathSeq

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.coeff == 0:
            raise ValueError("zero coefficient")
        if self.left.target != self.right.target:
            raise ValueError("monomial paths must share their range")

    def sort_key(self) -> tuple:
        return (self.left.sort_key(), self.right.sort_key())

    def scaled(self, c: Fraction) -> "Monomial":
        return Monomial(self.coeff * c, self.left, self.right)


@dataclass(frozen=True)
class LpaElement:
    """A finite sum of monomials, kept sorted with like terms merged.

    Build elements with :func:`element`, or from text with
    :func:`parse_element`.  ``LpaElement(...)`` takes monomials already
    sorted by ``sort_key`` and merged, and does not check them.
    """

    monomials: tuple[Monomial, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.monomials)

    def __add__(self, other: "LpaElement") -> "LpaElement":
        return element(self.monomials + other.monomials)

    def __neg__(self) -> "LpaElement":
        return self.scaled(-1)

    def __sub__(self, other: "LpaElement") -> "LpaElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LpaElement):
            out = []
            for a in self.monomials:
                for b in other.monomials:
                    m = _mono_mul(a, b)
                    if m is not None:
                        out.append(m)
            return element(out)
        return self.scaled(other)

    def __rmul__(self, other) -> "LpaElement":
        return self.scaled(other)

    def scaled(self, c) -> "LpaElement":
        c = Fraction(c)
        if c == 0:
            return LpaElement()
        return LpaElement(tuple(m.scaled(c) for m in self.monomials))

    def __repr__(self) -> str:
        return f"LpaElement({format_element(self)!r})"


def zero() -> LpaElement:
    return LpaElement()


def element(monomials: Iterable[Monomial]) -> LpaElement:
    """Build an element: merge like terms, drop zeros, sort canonically."""
    acc: dict[tuple, list] = {}
    for m in monomials:
        k = m.sort_key()
        if k in acc:
            acc[k][0] += m.coeff
        else:
            acc[k] = [m.coeff, m.left, m.right]
    out = [
        Monomial(c, left, right)
        for c, left, right in (acc[k] for k in sorted(acc))
        if c != 0
    ]
    return LpaElement(tuple(out))


def vertex_element(g: Graph, v: str) -> LpaElement:
    g.require_vertex(v)
    p = PathSeq.at(v)
    return LpaElement((Monomial(Fraction(1), p, p),))


def path_element(g: Graph, names: Iterable[str]) -> LpaElement:
    """The element of a real path (no ghost part): alpha r(alpha)*."""
    p = path_in(g, names)
    return LpaElement((Monomial(Fraction(1), p, PathSeq.at(p.target)),))


def monomial(g: Graph, coeff, alpha: Iterable[str], beta: Iterable[str]) -> LpaElement:
    """coeff * alpha beta* from edge-name sequences (a bare name means a vertex)."""

    def resolve(part) -> PathSeq:
        if isinstance(part, str):
            g.require_vertex(part)
            return PathSeq.at(part)
        return path_in(g, part)

    return LpaElement((Monomial(Fraction(coeff), resolve(alpha), resolve(beta)),))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial | None:
    """(alpha beta*)(gamma delta*) collapses by prefix cancellation; None is 0."""
    beta, gamma = a.right, b.left
    if beta.source != gamma.source:
        return None
    m, k = len(beta.edges), len(gamma.edges)
    if m <= k:
        if beta.edges != gamma.edges[:m]:
            return None
        rest = PathSeq(beta.target, gamma.edges[m:])
        return Monomial(a.coeff * b.coeff, a.left.concat(rest), b.right)
    if gamma.edges != beta.edges[:k]:
        return None
    rho = PathSeq(gamma.target, beta.edges[k:])
    return Monomial(a.coeff * b.coeff, a.left, b.right.concat(rho))


def mono_mul(a: Monomial, b: Monomial) -> LpaElement:
    """Product of two monomials: a single monomial, or zero."""
    m = _mono_mul(a, b)
    return LpaElement(() if m is None else (m,))


def star(x: LpaElement) -> LpaElement:
    """The involution: (c alpha beta*)* = c beta alpha*."""
    return element(Monomial(m.coeff, m.right, m.left) for m in x.monomials)


def designated_edge(g: Graph, v: str) -> str | None:
    """The lexicographically least edge emitted by ``v`` (None for sinks)."""
    outs = g.out_edges(v)
    return min(e.name for e in outs) if outs else None


def _reduce_once(g: Graph, m: Monomial) -> list[Monomial] | None:
    """One rewrite at the shared designated final edge, or None if irreducible."""
    a, b = m.left, m.right
    if not a.edges or not b.edges:
        return None
    f = a.edges[-1]
    if b.edges[-1] != f:
        return None
    v = f.src
    if f.name != designated_edge(g, v):
        return None
    a0, b0 = a.drop_last(), b.drop_last()
    out = [Monomial(m.coeff, a0, b0)]
    for e in g.out_edges(v):
        if e != f:
            out.append(Monomial(-m.coeff, a0.extend(e), b0.extend(e)))
    return out


def normal_form(g: Graph, x: LpaElement) -> LpaElement:
    """Rewrite to the spanning-basis representative.

    Terminates because each rewrite trades one monomial for a strictly
    shorter one plus tail-irreducible ones of equal length; the result is
    independent of rewrite order (checked by the confluence tests).
    """
    work = list(x.monomials)
    done: list[Monomial] = []
    while work:
        m = work.pop()
        pieces = _reduce_once(g, m)
        if pieces is None:
            done.append(m)
        else:
            work.extend(pieces)
    return element(done)


def equals(g: Graph, x: LpaElement, y: LpaElement) -> bool:
    """Equality in the algebra: the difference reduces to zero."""
    return not normal_form(g, x - y)


class _NonHomogeneous:
    __slots__ = ()

    def __repr__(self) -> str:
        return "NonHomogeneous"


NON_HOMOGENEOUS = _NonHomogeneous()


def standard_weights(g: Graph) -> dict[str, int]:
    """Every edge weighs 1 (vertices weigh 0, ghost edges weigh -1)."""
    return {e.name: 1 for e in g.edges}


def degree(g: Graph, x: LpaElement, weights: Mapping[str, int]):
    """Total weight if ``normal_form(x)`` is homogeneous, else NON_HOMOGENEOUS.

    A monomial weighs the sum over its left path minus the sum over its
    right path; the zero element has degree 0 by convention.
    """
    nf = normal_form(g, x)
    if not nf:
        return 0
    degs = set()
    for m in nf.monomials:
        try:
            d = sum(weights[e.name] for e in m.left.edges) - sum(
                weights[e.name] for e in m.right.edges
            )
        except KeyError as exc:
            raise ValueError(f"weight map is missing edge {exc.args[0]!r}") from None
        degs.add(d)
    if len(degs) == 1:
        return degs.pop()
    return NON_HOMOGENEOUS


def omega(g: Graph, alpha: PathSeq, lam: PathSeq):
    """The element alpha lam alpha* attached to a cycle without exits.

    ``lam`` must be a vertex-simple closed path each of whose vertices emits
    exactly one edge, based at the range of ``alpha``.
    """
    if lam.length == 0 or lam.source != lam.target:
        raise ValueError("lam must be a closed path of positive length")
    srcs = [e.src for e in lam.edges]
    if len(set(srcs)) != len(srcs):
        raise ValueError("lam must visit each vertex once")
    for u in srcs:
        if len(g.out_edges(u)) != 1:
            raise ValueError(f"lam has an exit at {u!r}")
    if alpha.target != lam.source:
        raise ValueError("lam must be based at the range of alpha")
    return LpaElement((Monomial(Fraction(1), alpha.concat(lam), alpha),))


# ── Cuntz-Krieger family verification ─────────────────────────────────────────


@dataclass(frozen=True)
class CkFamily:
    """Images of a target graph's generators inside a host algebra."""

    vertex_images: Mapping[str, LpaElement]
    edge_images: Mapping[str, LpaElement]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex_images", dict(self.vertex_images))
        object.__setattr__(self, "edge_images", dict(self.edge_images))


@dataclass(frozen=True)
class CkReport:
    ok: bool
    failures: tuple[str, ...]


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

    q = {v: family.vertex_images[v] for v in target.vertices}
    t = {e.name: family.edge_images[e.name] for e in target.edges}
    fails: list[str] = []

    for v in target.vertices:
        if not normal_form(host, q[v]):
            fails.append(f"nonzero: vertex image {v} reduces to 0")
    for v in target.vertices:
        for w in target.vertices:
            want = q[v] if v == w else zero()
            if not equals(host, q[v] * q[w], want):
                fails.append(f"orthogonal idempotents: {v},{w}")
    for e in target.edges:
        te = t[e.name]
        if not equals(host, q[e.src] * te, te) or not equals(host, te * q[e.dst], te):
            fails.append(f"absorption: {e.name}")
        se = star(te)
        if not equals(host, q[e.dst] * se, se) or not equals(host, se * q[e.src], se):
            fails.append(f"ghost absorption: {e.name}")
    for e in target.edges:
        for f in target.edges:
            want = q[e.dst] if e.name == f.name else zero()
            if not equals(host, star(t[e.name]) * t[f.name], want):
                fails.append(f"CK-1: {e.name},{f.name}")
    for v in target.vertices:
        outs = target.out_edges(v)
        if not outs:
            continue
        total = zero()
        for e in outs:
            total = total + t[e.name] * star(t[e.name])
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


def _parse_path(g: Graph, token: str) -> PathSeq:
    if not token:
        raise ValueError("empty path")
    if token in g.vertex_set:
        return PathSeq.at(token)
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
    # split into signed terms
    terms: list[tuple[int, str]] = []
    sign, pos = 1, 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        pos = 1
    start = pos
    while pos <= len(s):
        if pos == len(s) or s[pos] in "+-":
            if start == pos:
                raise ValueError("empty term")
            terms.append((sign, s[start:pos]))
            if pos < len(s):
                sign = -1 if s[pos] == "-" else 1
            start = pos + 1
        pos += 1
    out: list[Monomial] = []
    for sgn, term in terms:
        coeff = Fraction(sgn)
        m = _COEFF_RE.match(term)
        if m:
            coeff *= Fraction(m.group(1))
            term = term[m.end():]
        if ";" in term:
            a_text, _, b_text = term.partition(";")
            alpha = _parse_path(g, a_text)
            beta = _parse_path(g, b_text)
        else:
            alpha = _parse_path(g, term)
            beta = PathSeq.at(alpha.target)
        if alpha.target != beta.target:
            raise ValueError(f"term {term!r}: paths do not share a range")
        out.append(Monomial(coeff, alpha, beta))
    return element(out)


def format_element(x: LpaElement) -> str:
    if not x.monomials:
        return "0"
    parts: list[str] = []
    for i, m in enumerate(x.monomials):
        body = m.left.label()
        if m.right.length:
            body += f" ; {m.right.label()}"
        mag = abs(m.coeff)
        if mag != 1:
            body = f"{mag} * {body}"
        if i == 0:
            parts.append(body if m.coeff > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if m.coeff > 0 else f" - {body}")
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
