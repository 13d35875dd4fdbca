"""Exact K-theory ranks for graph algebras via integer linear algebra.

Everything here is computed over arbitrary-precision integers; the unit-group
rank ``r`` of the coefficient field is an input, never computed.  The infinite
rank is represented by ``INF`` (``float("inf")``, used purely as a sentinel —
no float arithmetic ever touches a finite rank).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
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
]

INF = float("inf")


class IntMatrix(NamedTuple("IntMatrix", [("cells", tuple[tuple[tuple[int, int], ...], ...]),
                                          ("cols", int)])):
    """Immutable integer matrix, stored sparse: for each row the ``(column,
    value)`` pairs of its nonzero entries in column order, and the width."""

    __slots__ = ()

    def __new__(cls, entries) -> "IntMatrix":
        """The matrix with the given dense rows, all of one width."""
        entries = tuple(tuple(row) for row in entries)
        widths = {len(row) for row in entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        bad = [x for row in entries for x in row if type(x) is not int]
        if bad:
            raise ValueError(f"non-integer entry {bad[0]!r}")
        cells = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in entries)
        return tuple.__new__(cls, (cells, widths.pop() if widths else 0))

    @classmethod
    def _make(cls, fields) -> "IntMatrix":
        """The matrix with these sparse fields, checked as ``_replace`` and
        unpickling need: int columns rising inside ``range(cols)``, nonzero int values."""
        cells, cols = fields
        cells = tuple(tuple((j, x) for j, x in row) for row in cells)
        if not (type(cols) is int and cols >= 0 and all(
                type(j) is int and prev < j < cols and type(x) is int and x
                for row in cells for prev, (j, x) in zip((-1, *(j for j, _ in row)), row))):
            raise ValueError("malformed sparse matrix")
        return tuple.__new__(cls, (cells, cols))

    def __reduce__(self):
        return self._make, (tuple(self),)

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, rebuilt on each read."""
        return tuple(tuple(dict(row).get(j, 0) for j in range(self.cols)) for row in self.cells)

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


def presentation_matrix(g: Graph) -> IntMatrix:
    """I - A^t with columns restricted to the regular vertices.

    Rows run over all vertices, columns over the regular (emitting) ones,
    both in declaration order.  The cokernel of this matrix presents K0.
    The rows are built from the out-edges of each regular vertex in turn,
    so each gains its entries in column order, in O(V + E) in all.
    """
    rows = {v: {} for v in g.vertices}
    j = 0
    for v in g.vertices:
        out = g._out[v]
        if out:
            own = rows[v]
            own[j] = 1
            for e in out:
                row = rows[e.dst]
                row[j] = row.get(j, 0) - 1
            if not own[j]:
                del own[j]
            j += 1
    return tuple.__new__(IntMatrix, (tuple(tuple(row.items()) for row in rows.values()), j))


def _sparsest_unit(rows, cols, by_length) -> tuple[int, int] | None:
    """The next pivot: in the shortest row holding a ±1, the ±1 whose column
    has the fewest entries, or None.  That is the least Markowitz cost (row
    length - 1) * (column count - 1) in the row; Duff, Erisman and Reid
    restrict the search to the sparsest rows so.  ``by_length[k]`` lists rows
    filed at length k, latest last.  A row read here that was pivoted, has
    moved to another length or holds no ±1 is dropped; an update files it
    again."""
    for k in range(1, len(cols) + 1):
        bucket = by_length.get(k)
        while bucket:
            i = bucket[-1]
            row = rows[i]
            if row is not None and len(row) == k:
                pivot, least = None, 0
                for j, x in row.items():
                    if (x == 1 or x == -1) and (pivot is None or len(cols[j]) < least):
                        pivot, least = (i, j), len(cols[j])
                if pivot is not None:
                    return pivot
            bucket.pop()
    return None


def _unit_pivots(m: IntMatrix) -> tuple[int, list[dict[int, int]]]:
    """Stage 1: eliminate ±1 pivots on sparse rows.

    Returns the number of pivots and the nonzero rows of the Schur
    complement left, as ``{column: value}`` dicts.  Only the rows a pivot
    updates change length, so only they are filed again, and a pivot costs
    its row, its column and its fill.
    """
    rows: list[dict[int, int] | None] = [dict(row) for row in m.cells]
    cols: list[set[int]] = [set() for _ in range(m.cols)]  # column -> rows with a nonzero there
    by_length: defaultdict[int, list[int]] = defaultdict(list)
    for i, row in enumerate(rows):
        if row:
            by_length[len(row)].append(i)
            for j in row:
                cols[j].add(i)
    ones = 0
    while (pivot := _sparsest_unit(rows, cols, by_length)) is not None:
        i, j = pivot
        prow = rows[i]
        rows[i] = None
        u = prow.pop(j)
        held = cols[j]
        held.discard(i)
        for k in prow:
            cols[k].discard(i)
        for r in held:
            row = rows[r]
            f = row.pop(j) * u  # u is ±1, its own inverse
            for k, y in prow.items():
                x = row.get(k)
                if x is None:
                    row[k] = -f * y
                    cols[k].add(r)
                else:
                    x -= f * y
                    if x:
                        row[k] = x
                    else:
                        del row[k]
                        cols[k].discard(r)
            if row:
                by_length[len(row)].append(r)
        held.clear()
        ones += 1
    return ones, [row for row in rows if row]


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


def _row_hnf(rows: list[list[int]]) -> list[tuple[int, list[int]]]:
    """The nonzero rows of a row Hermite normal form (Kannan-Bachem), each
    with its pivot column, in column order.

    Rows are inserted one at a time.  Each is eliminated against the pivot
    of every column it reaches with a 2x2 transform of determinant 1, and
    then every entry above a pivot is reduced modulo that pivot.  Entries
    are left reduced by the insertion before, so only the columns from the
    first one whose pivot row changed are reduced again.
    """
    ncols = len(rows[0]) if rows else 0
    piv: list[list[int] | None] = [None] * ncols  # column -> row leading there
    for row in rows:
        changed = ncols  # the first column whose pivot row changed
        for j in range(ncols):
            x = row[j]
            if not x:
                continue
            p = piv[j]
            if p is None:
                piv[j] = row if x > 0 else [-y for y in row]
                changed = min(changed, j)
                break
            d = p[j]
            if x % d:
                # [s t; -x/g d/g] has determinant (s*d + t*x) / g = 1
                g, s, t = _xgcd(d, x)
                a, b = x // g, d // g
                piv[j] = p[:j] + [s * y + t * z for y, z in zip(p[j:], row[j:])]
                row[j:] = [b * z - a * y for y, z in zip(p[j:], row[j:])]
                changed = min(changed, j)
            else:
                q = x // d
                row[j:] = [z - q * y for y, z in zip(p[j:], row[j:])]
        pivots = [j for j in range(ncols) if piv[j] is not None]
        first = bisect_left(pivots, changed)
        for k, i in enumerate(pivots):
            above = piv[i]
            for j in pivots[max(k + 1, first) :]:
                q = above[j] // piv[j][j]
                if q:
                    p = piv[j]
                    above[j:] = [y - q * z for y, z in zip(above[j:], p[j:])]
    return [(j, p) for j, p in enumerate(piv) if p is not None]


def smith_normal_form(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of an integer matrix, all positive.

    The factor count equals the rank.  Two stages, each made of unimodular
    row and column operations, so each keeps the invariant factors of the
    matrix it is handed:

    1. Sparse unit pivots (``_unit_pivots``) on the matrix's sparse rows,
       copied into ``{column: value}`` dicts beside a set of rows per column
       in O(nonzeros).  While some row holds a ±1, the ±1 of a shortest such
       row whose column is sparsest clears its column by row operations; the
       column operations that then clear its row touch no other row.  Its row
       and column drop out with one factor 1, and the Schur complement left
       keeps every other factor.  A pivot costs its row, its column and the
       fill it makes; no pivot passes over the whole matrix.  Sparse
       presentation matrices end here or nearly so.
    2. Alternating row Hermite normal forms (``_row_hnf``, Kannan-Bachem)
       of the remainder, made dense over the columns it still uses.  An HNF
       keeps its entries bounded by its pivots and costs O(r^2 c)
       big-integer operations for r rows and c columns, so this is the
       stage that grows fastest when many rows are left.  Zero rows drop
       out, so rank deficiency needs no special case.  Each row whose pivot
       is 1 drops out with its pivot column and one factor 1: the rows
       around a unit pivot are reduced to 0 in its column, so that column
       is a unit vector.  The other columns stay, free ones included.  The
       loop stops when the core is diagonal and otherwise goes round again
       on its transpose, whose first row is the old first column
       ``(d, 0, ..., 0)``: each round shrinks the core or replaces d by a
       proper divisor, so the loop ends.  Pairwise gcd/lcm swaps then order
       the diagonal into a divisibility chain.

    Python integers keep every intermediate value exact.
    """
    ones, rest = _unit_pivots(m)
    keep = sorted({j for row in rest for j in row})
    core = [[row.get(j, 0) for j in keep] for row in rest]
    while True:
        hnf = _row_hnf(core)
        units = {j for j, row in hnf if row[j] == 1}
        ones += len(units)
        core = [[x for j, x in enumerate(row) if j not in units]
                for lead, row in hnf if lead not in units]
        if not any(x for i, row in enumerate(core) for j, x in enumerate(row) if i != j):
            break
        core = [list(col) for col in zip(*core)]
    d = [row[i] for i, row in enumerate(core)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return (1,) * ones + tuple(d)


class KSummary(NamedTuple):
    """Exact K-theory rank data of a graph algebra over a field whose unit
    group has free rank ``unit_rank``, stored as the four facts it is read
    off: the invariant factors of I - A^t and the vertex and regular-vertex
    counts.

    ``no_sinks`` is also the verdict that the algebra is an algebraic
    Cuntz-Krieger algebra and that it is strongly graded: for a finite
    graph all three coincide.  ``criterion4`` compares the two C*-ranks;
    ``criterion5`` compares rank K1 against (r+1) * rank K0 and is None
    (inapplicable) for an infinite unit-group rank.  For a finite graph
    each criterion that applies equals ``no_sinks``.
    """

    invariant_factors: tuple[int, ...]
    vertex_count: int
    regular_count: int
    unit_rank: "int | float"

    @property
    def torsion(self) -> tuple[int, ...]:
        """The nonunit invariant factors."""
        return tuple(d for d in self.invariant_factors if d != 1)

    @property
    def rank_k0(self) -> int:
        return self.vertex_count - len(self.invariant_factors)

    @property
    def rank_k1_cstar(self) -> int:
        return self.regular_count - len(self.invariant_factors)

    @property
    def rank_k1(self) -> "int | float":
        if self.unit_rank == INF:
            return self.rank_k1_cstar if self.rank_k0 == 0 else INF
        return self.rank_k1_cstar + self.unit_rank * self.rank_k0

    @property
    def singular_count(self) -> int:
        return self.vertex_count - self.regular_count

    @property
    def no_sinks(self) -> bool:
        return self.singular_count == 0

    @property
    def criterion4(self) -> bool:
        return self.rank_k0 == self.rank_k1_cstar

    @property
    def criterion5(self) -> "bool | None":
        return None if self.unit_rank == INF else self.rank_k1 == (self.unit_rank + 1) * self.rank_k0


def k_summary(g: Graph, unit_rank: "int | float" = 0) -> KSummary:
    if unit_rank != INF and (type(unit_rank) is not int or unit_rank < 0):
        raise ValueError("unit rank must be a nonnegative integer or INF")
    b = presentation_matrix(g)
    return KSummary(smith_normal_form(b), len(g.vertices), b.cols, unit_rank)
