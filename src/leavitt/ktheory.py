"""Exact K-theory ranks for graph algebras via integer linear algebra.

Everything here is computed over arbitrary-precision integers; the unit-group
rank ``r`` of the coefficient field is an input, never computed.  The infinite
rank is represented by ``INF`` (``float("inf")``, used purely as a sentinel —
no float arithmetic ever touches a finite rank).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph

__all__ = [
    "INF",
    "IntMatrix",
    "adjacency",
    "presentation_matrix",
    "smith_normal_form",
    "KSummary",
    "k_summary",
    "k0_invariant_data",
    "ClassificationVerdict",
    "classify_algebra",
]

INF = float("inf")


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix (row-major)."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(tuple(row) for row in self.entries))
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        for row in self.entries:
            for x in row:
                if not isinstance(x, int):
                    raise ValueError(f"non-integer entry {x!r}")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


def adjacency(g: Graph) -> IntMatrix:
    """A[v][w] = number of edges v -> w, vertices in declaration order."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    a = [[0] * n for _ in range(n)]
    for e in g.edges:
        a[idx[e.src]][idx[e.dst]] += 1
    return IntMatrix(tuple(tuple(row) for row in a))


def presentation_matrix(g: Graph) -> IntMatrix:
    """I - A^t with columns restricted to the regular vertices.

    Rows run over all vertices, columns over the regular (emitting) ones,
    both in declaration order.  The cokernel of this matrix presents K0.
    """
    a = adjacency(g).entries
    idx = {v: i for i, v in enumerate(g.vertices)}
    reg = [v for v in g.vertices if g.out_edges(v)]
    rows = []
    for v in g.vertices:
        i = idx[v]
        rows.append(tuple((1 if idx[w] == i else 0) - a[idx[w]][i] for w in reg))
    return IntMatrix(tuple(rows))


def _swap_rows(a: list[list[int]], i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _swap_cols(a: list[list[int]], i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of an integer matrix, all positive.

    Classic elementary-operation reduction with the pivot chosen as the
    smallest nonzero absolute value in the trailing block; Python integers
    keep every intermediate value exact.  The factor count equals the rank.
    """
    a = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    factors: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        # smallest-magnitude nonzero entry of the trailing block -> pivot
        pos = None
        best = 0
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = a[i][j]
                if x and (pos is None or abs(x) < best):
                    pos, best = (i, j), abs(x)
        if pos is None:
            break
        _swap_rows(a, t, pos[0])
        _swap_cols(a, t, pos[1])
        while True:
            restart = False
            # clear column t; a nonzero remainder becomes the smaller new pivot
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        _swap_rows(a, t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        _swap_cols(a, t, j)
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the whole trailing block for d1 | d2 | ...
            viol = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % a[t][t]:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[viol])]
        factors.append(abs(a[t][t]))
        t += 1
    return tuple(factors)


@dataclass(frozen=True)
class KSummary:
    """Exact K-theory rank data of a graph algebra over a field whose unit
    group has free rank ``unit_rank``."""

    matrix: IntMatrix
    rank: int  # rational rank of the presentation matrix
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
        matrix=b,
        rank=rho,
        invariant_factors=factors,
        torsion=tuple(d for d in factors if d != 1),
        rank_k0=rank_k0,
        rank_k1=rank_k1,
        rank_k1_cstar=n_reg - rho,
        singular_count=n - n_reg,
        unit_rank=unit_rank,
    )


def k0_invariant_data(g: Graph) -> tuple[int, tuple[int, ...]]:
    """(free rank of K0, nonunit invariant factors) — the move-invariant data."""
    s = k_summary(g, 0)
    return (s.rank_k0, s.torsion)


@dataclass(frozen=True)
class ClassificationVerdict:
    """Equivalent characterizations of when the algebra of a finite graph
    embeds the full family of generators with no sinks.

    ``no_sinks`` is also the verdict that the algebra is an algebraic
    Cuntz-Krieger algebra and that it is strongly graded: for a finite
    graph all three coincide.  ``criterion4`` compares the two C*-ranks;
    ``criterion5`` compares rank K1 against (r+1) * rank K0 and is None
    (inapplicable) for an infinite unit-group rank.  ``consistent`` records
    that the rank-based criteria agreed with the combinatorial one; it is a
    bug detector and should always be True.
    """

    no_sinks: bool
    criterion4: bool
    criterion5: "bool | None"
    criterion5_note: str
    consistent: bool


def classify_algebra(s: KSummary) -> ClassificationVerdict:
    """The verdicts, read off a K-theory summary without recomputing it."""
    no_sinks = s.singular_count == 0
    criterion4 = s.rank_k0 == s.rank_k1_cstar
    if s.unit_rank == INF:
        criterion5: "bool | None" = None
        note = "inapplicable: infinite unit-group rank"
        consistent = criterion4 == no_sinks
    else:
        criterion5 = s.rank_k1 == (s.unit_rank + 1) * s.rank_k0
        note = ""
        consistent = criterion4 == no_sinks and criterion5 == no_sinks
    return ClassificationVerdict(
        no_sinks=no_sinks,
        criterion4=criterion4,
        criterion5=criterion5,
        criterion5_note=note,
        consistent=consistent,
    )
