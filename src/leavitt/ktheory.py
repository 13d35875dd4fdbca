"""Exact K-theory ranks for graph algebras via integer linear algebra.

Everything here is computed over arbitrary-precision integers; the unit-group
rank ``r`` of the coefficient field is an input, never computed.  The infinite
rank is represented by ``INF`` (``float("inf")``, used purely as a sentinel —
no float arithmetic ever touches a finite rank).
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .graph import Graph

__all__ = [
    "INF",
    "IntMatrix",
    "presentation_matrix",
    "smith_normal_form",
    "KSummary",
    "k_summary",
    "ClassificationVerdict",
    "classify_algebra",
]

INF = float("inf")


class IntMatrix(NamedTuple("IntMatrix", [("entries", tuple[tuple[int, ...], ...])])):
    """Immutable integer matrix (row-major)."""

    __slots__ = ()

    def __new__(cls, entries) -> "IntMatrix":
        entries = tuple(tuple(row) for row in entries)
        widths = {len(row) for row in entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        for row in entries:
            for x in row:
                if not isinstance(x, int):
                    raise ValueError(f"non-integer entry {x!r}")
        return tuple.__new__(cls, (entries,))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


def presentation_matrix(g: Graph) -> IntMatrix:
    """I - A^t with columns restricted to the regular vertices.

    Rows run over all vertices, columns over the regular (emitting) ones,
    both in declaration order.  The cokernel of this matrix presents K0.
    """
    col = {v: j for j, v in enumerate(v for v in g.vertices if g._out[v])}
    rows = {v: [0] * len(col) for v in g.vertices}
    for v, j in col.items():
        rows[v][j] = 1
    for e in g.edges:
        rows[e.dst][col[e.src]] -= 1
    return IntMatrix(rows.values())


def _unit_pivots(m: IntMatrix) -> tuple[int, list[dict[int, int]]]:
    """Stage 1: eliminate ±1 pivots sparsely.

    Returns the number of pivots and the nonzero rows of the Schur
    complement left, as ``{column: value}`` dicts.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}  # column -> rows with a nonzero there
    for i, entries in enumerate(m.entries):
        row = {j: x for j, x in enumerate(entries) if x}
        if row:
            rows[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)
    ones = 0
    while True:
        # the unit entry of least Markowitz cost (row nonzeros - 1) * (column
        # nonzeros - 1); rows go shortest first, so the scan stops once no
        # later row can beat the best cost found
        pivot = None
        best = -1
        cmin = min((len(s) for s in cols.values() if s), default=1) - 1
        for i in sorted(rows, key=lambda i: len(rows[i])):
            row = rows[i]
            ri = len(row) - 1
            if pivot is not None and ri * cmin >= best:
                break
            for j, x in row.items():
                if x == 1 or x == -1:
                    cost = ri * (len(cols[j]) - 1)
                    if pivot is None or cost < best:
                        pivot, best = (i, j), cost
        if pivot is None:
            return ones, list(rows.values())
        i, j = pivot
        prow = rows.pop(i)
        u = prow.pop(j)
        for k in prow:
            cols[k].discard(i)
        for r in cols.pop(j) - {i}:
            row = rows[r]
            f = row.pop(j) * u
            for k, y in prow.items():
                v = row.get(k, 0) - f * y
                if v:
                    if k not in row:
                        cols[k].add(r)
                    row[k] = v
                else:
                    del row[k]
                    cols[k].discard(r)
            if not row:
                del rows[r]
        ones += 1


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b not both zero."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def _row_hnf(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Stage 2: the nonzero rows of a row Hermite normal form (Kannan-Bachem).

    Rows are inserted one at a time.  Each is eliminated against the pivot
    of every column it reaches with a 2x2 transform of determinant 1, and
    then every entry above a pivot is reduced modulo that pivot.
    """
    piv: list[list[int] | None] = [None] * ncols  # column -> row leading there
    for row in rows:
        for j in range(ncols):
            x = row[j]
            if not x:
                continue
            p = piv[j]
            if p is None:
                piv[j] = row if x > 0 else [-y for y in row]
                break
            d = p[j]
            if x % d:
                # [s t; -x/g d/g] has determinant (s*d + t*x) / g = 1
                g, s, t = _xgcd(d, x)
                a, b = x // g, d // g
                piv[j] = p[:j] + [s * y + t * z for y, z in zip(p[j:], row[j:])]
                row[j:] = [b * z - a * y for y, z in zip(p[j:], row[j:])]
            else:
                q = x // d
                row[j:] = [z - q * y for y, z in zip(p[j:], row[j:])]
        pivots = [j for j in range(ncols) if piv[j] is not None]
        for k, i in enumerate(pivots):
            above = piv[i]
            for j in pivots[k + 1 :]:
                q = above[j] // piv[j][j]
                if q:
                    p = piv[j]
                    above[j:] = [y - q * z for y, z in zip(above[j:], p[j:])]
    return [p for p in piv if p is not None]


def _diagonal_factors(core: list[list[int]]) -> list[int]:
    """Stage 3: diagonalize the triangular core by row HNFs of its transpose,
    alternating, then sort the diagonal into a divisibility chain."""
    while any(x for i, row in enumerate(core) for j, x in enumerate(row) if i != j):
        core = _row_hnf([list(col) for col in zip(*core)], len(core))
    d = [row[i] for i, row in enumerate(core)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


def smith_normal_form(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of an integer matrix, all positive.

    The factor count equals the rank.  Three stages, each made of unimodular
    row and column operations, so each keeps the invariant factors of the
    matrix it is handed:

    1. Sparse unit pivots.  While an entry is ±1, the one of least Markowitz
       cost clears its column by row operations; the column operations that
       then clear its row touch no other row.  Its row and column drop out
       with one factor 1, and the Schur complement left keeps every other
       factor.  Sparse presentation matrices end here or nearly so.
    2. A row Hermite normal form of the remainder, whose entries stay bounded
       by its pivots (``_row_hnf``).  Zero rows drop out, so rank deficiency
       needs no special case.
    3. Row HNFs of the transpose, alternating, until the core is diagonal
       (Kannan-Bachem).  The first row of each new core is the old core's
       first column, ``(d, 0, ..., 0)``, so each round either splits off the
       first row and column (when d divides the old first row) or replaces d
       by a proper divisor, and the loop ends.  Pairwise gcd/lcm swaps then
       order the diagonal into a divisibility chain.

    Python integers keep every intermediate value exact.
    """
    ones, rest = _unit_pivots(m)
    keep = sorted({j for row in rest for j in row})
    core = _row_hnf([[row.get(j, 0) for j in keep] for row in rest], len(keep))
    return (1,) * ones + tuple(_diagonal_factors(core))


class KSummary(NamedTuple):
    """Exact K-theory rank data of a graph algebra over a field whose unit
    group has free rank ``unit_rank``."""

    invariant_factors: tuple[int, ...]
    torsion: tuple[int, ...]  # the nonunit invariant factors
    rank_k0: int
    rank_k1: "int | float"
    rank_k1_cstar: int
    singular_count: int
    unit_rank: "int | float"


def _check_unit_rank(r: "int | float") -> None:
    if r == INF:
        return
    if not isinstance(r, int) or r < 0:
        raise ValueError("unit rank must be a nonnegative integer or INF")


def k_summary(g: Graph, unit_rank: "int | float" = 0) -> KSummary:
    _check_unit_rank(unit_rank)
    b = presentation_matrix(g)
    factors = smith_normal_form(b)
    rho = len(factors)
    n = len(g.vertices)
    n_reg = b.cols
    rank_k0 = n - rho
    if unit_rank == INF:
        rank_k1 = (n_reg - rho) if rank_k0 == 0 else INF
    else:
        rank_k1 = (n_reg - rho) + unit_rank * rank_k0
    return KSummary(
        invariant_factors=factors,
        torsion=tuple(d for d in factors if d != 1),
        rank_k0=rank_k0,
        rank_k1=rank_k1,
        rank_k1_cstar=n_reg - rho,
        singular_count=n - n_reg,
        unit_rank=unit_rank,
    )


class ClassificationVerdict(NamedTuple):
    """Equivalent characterizations of when the algebra of a finite graph
    embeds the full family of generators with no sinks.

    ``no_sinks`` is also the verdict that the algebra is an algebraic
    Cuntz-Krieger algebra and that it is strongly graded: for a finite
    graph all three coincide.  ``criterion4`` compares the two C*-ranks;
    ``criterion5`` compares rank K1 against (r+1) * rank K0 and is None
    (inapplicable) for an infinite unit-group rank.  For a finite graph
    each criterion that applies equals ``no_sinks``.
    """

    no_sinks: bool
    criterion4: bool
    criterion5: "bool | None"


def classify_algebra(s: KSummary) -> ClassificationVerdict:
    """The verdicts, read off a K-theory summary without recomputing it."""
    return ClassificationVerdict(
        no_sinks=s.singular_count == 0,
        criterion4=s.rank_k0 == s.rank_k1_cstar,
        criterion5=None if s.unit_rank == INF else s.rank_k1 == (s.unit_rank + 1) * s.rank_k0,
    )
