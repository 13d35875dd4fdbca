"""K-theory bookkeeping: Smith normal form, rank formulas, verdicts.

Two independent oracles come first: invariant factors from gcds of k x k
minors (cofactor-expansion determinants), and rational rank and determinant
by fraction-free (Bareiss) Gaussian elimination.  The Smith normal form must
agree with both on random matrices before anything downstream is trusted.
sympy's ``invariant_factors``, when installed, checks mid-sized presentation
matrices too.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import random
import time
import tracemalloc
from itertools import combinations, product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leavitt.ktheory
from conftest import (
    arrow,
    funnel_into_cycle,
    graphs,
    loops_and_chords,
    looped_pair,
    random_graph,
    rose2,
    single_loop,
    triangle,
    two_way_line,
)
from leavitt.cli import run
from leavitt.graph import Edge, Graph, classify, parse_graph, serialize_graph
from leavitt.ktheory import (
    INF,
    IntMatrix,
    k_summary,
    presentation_matrix,
    smith_normal_form,
)


# ── oracles ───────────────────────────────────────────────────────────────────


def det(m: list[list[int]]) -> int:
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j, entry in enumerate(m[0]):
        if entry:
            sub = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * entry * det(sub)
    return total


def oracle_invariant_factors(entries) -> tuple[int, ...]:
    """d_1 ... d_k from the gcds D_k of all k x k minors: d_k = D_k / D_{k-1}."""
    rows, cols = len(entries), len(entries[0]) if entries else 0
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, det([[entries[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def bareiss(entries) -> tuple[int, int]:
    """(rational rank, determinant) by Bareiss elimination — all arithmetic
    stays integral.  The determinant is 0 unless the matrix is square and of
    full rank."""
    m = [list(row) for row in entries]
    if not m or not m[0]:
        return 0, 0
    rows, cols = len(m), len(m[0])
    rank, r, prev, sign = 0, 0, 1, 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank, sign * prev if rank == rows == cols else 0


def _shaped(rows: int, cols: int, entries):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _product(p, q):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*q)] for row in p]


_dims = st.integers(min_value=1, max_value=5)
_no_units = st.sampled_from((0, 2, -2, 3, -3, 4, -4, 6, -6))

int_matrices = st.one_of(
    st.tuples(_dims, _dims).flatmap(lambda d: _shaped(*d, st.integers(-9, 9))),
    # no ±1 entry: the sparse unit pivots find nothing, and the Hermite
    # normal form and the alternating transposes of its core do all the work
    st.tuples(_dims, _dims).flatmap(lambda d: _shaped(*d, _no_units)),
    # wide, no ±1 entry: the Hermite normal form's unit pivots sit beside
    # free columns, which must stay
    st.tuples(st.integers(1, 3), st.integers(4, 7)).flatmap(lambda d: _shaped(*d, _no_units)),
    # rank-deficient wide and tall products through an inner dimension of 2
    # or 3, with no ±1 entry in either factor
    st.tuples(st.integers(1, 6), st.integers(2, 3), st.integers(1, 6))
    .flatmap(lambda d: st.tuples(_shaped(d[0], d[1], _no_units), _shaped(d[1], d[2], _no_units)))
    .map(lambda pq: _product(*pq)),
    # rank-deficient products P.Q through an inner dimension of 1 or 2
    st.tuples(_dims, st.integers(1, 2), _dims)
    .flatmap(lambda d: st.tuples(_shaped(d[0], d[1], st.integers(-4, 4)),
                                 _shaped(d[1], d[2], st.integers(-4, 4))))
    .map(lambda pq: _product(*pq)),
    # all zero, with the n x 0 shape of an all-sink graph and the 0 x 0 shape
    # of the empty graph
    st.tuples(st.integers(0, 5), st.integers(0, 5)).map(
        lambda d: [[0] * d[1] for _ in range(d[0])]
    ),
)


def sink_free_multigraph(rng: random.Random, n: int, m: int, sinks: int = 0) -> Graph:
    """``m`` random edges on ``n`` vertices, every vertex but ``sinks`` random
    ones emitting at least one."""
    vs = tuple(f"v{i}" for i in range(n))
    emit = sorted(rng.sample(range(n), n - sinks))
    pairs = [(i, rng.randrange(n)) for i in emit]
    pairs += [(rng.choice(emit), rng.randrange(n)) for _ in range(m - len(pairs))]
    return Graph(vs, tuple(Edge(f"e{k}", vs[a], vs[b]) for k, (a, b) in enumerate(pairs)))


# ── matrices ──────────────────────────────────────────────────────────────────


def test_int_matrix_rejects_ragged():
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (3,)))


def test_int_matrix_rejects_non_integer():
    with pytest.raises(ValueError):
        IntMatrix(((1.5,),))


def test_int_matrix_keeps_its_width_without_nonzero_entries():
    m = IntMatrix(((), ()))
    assert (m.rows, m.cols) == (2, 0) and m.cells == ((), ()) and m.entries == ((), ())
    assert IntMatrix(((0, 0),)) != IntMatrix(((0,),))
    assert (IntMatrix(((0, 0),)).rows, IntMatrix(((0, 0),)).cols) == (1, 2)
    assert (IntMatrix(()).rows, IntMatrix(()).cols) == (0, 0)


def test_int_matrix_stores_each_rows_nonzero_entries_in_column_order():
    m = IntMatrix([[0, 3, 0], [-1, 0, 2], [0, 0, 0]])
    assert m.cells == (((1, 3),), ((0, -1), (2, 2)), ())
    assert m.entries == ((0, 3, 0), (-1, 0, 2), (0, 0, 0))
    assert (m.rows, m.cols) == (3, 3)
    assert m == IntMatrix(m.entries) and hash(m) == hash(IntMatrix(m.entries))
    assert m != IntMatrix([[0, 3, 0], [-1, 0, 2]])


def test_int_matrix_survives_copy_and_pickle():
    m = IntMatrix([[0, 3], [1, 0]])
    for other in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert other == m and type(other) is IntMatrix and repr(other) == "IntMatrix(2x2)"


def dense_presentation(g: Graph) -> list[list[int]]:
    """I - A^t over the regular vertices, entry by entry from the edge list."""
    regular = [w for w in g.vertices if any(e.src == w for e in g.edges)]
    return [[int(v == w) - sum(e.src == w and e.dst == v for e in g.edges) for w in regular]
            for v in g.vertices]


def test_presentation_examples():
    assert presentation_matrix(arrow()).entries == ((1,), (-1,))
    assert presentation_matrix(single_loop()).entries == ((0,),)
    assert presentation_matrix(rose2()).entries == ((-1,),)
    assert presentation_matrix(single_loop()).cells == ((),)
    for g in (arrow(), single_loop(), rose2(), funnel_into_cycle(), triangle(), two_way_line(),
              loops_and_chords(), looped_pair(), Graph(("a", "b"), ()), Graph((), ())):
        assert presentation_matrix(g) == IntMatrix(dense_presentation(g)), g


# ── Smith normal form against the oracles ─────────────────────────────────────


def test_snf_frozen_examples():
    assert smith_normal_form(IntMatrix(((2, 0), (0, 3)))) == (1, 6)
    assert smith_normal_form(IntMatrix(((0, 0), (0, 0)))) == ()
    assert smith_normal_form(IntMatrix(((1,), (-1,)))) == (1,)
    # no ±1 entry.  Already Hermite normal forms, so only the alternating
    # transposes find d1: one round turns [[4, 2], [0, 3]] into
    # [[2, 3], [0, 6]], and only a second finds d1 = 1.  Already diagonal,
    # so only the gcd/lcm pass orders the factors.
    assert smith_normal_form(IntMatrix(((4, 2), (0, 4)))) == (2, 8)
    assert smith_normal_form(IntMatrix(((4, 2), (0, 3)))) == (1, 12)
    assert smith_normal_form(IntMatrix(((6, 0, 0), (0, 4, 0), (0, 0, 10)))) == (2, 2, 60)
    # a unit pivot beside a free column: the free column stays, or [[2, 1]]
    # would give (2,)
    assert smith_normal_form(IntMatrix(((2, 1),))) == (1,)
    assert smith_normal_form(IntMatrix(((2, 1), (0, 0)))) == (1,)
    assert smith_normal_form(IntMatrix(((1, 3, 5), (0, 2, 1)))) == (1, 1)
    # the same with no ±1 entry, so the unit pivots first appear in the
    # Hermite normal form: [[2, 4, 3], [3, 5, 3]] becomes [[1, 1, 0], [0, 2, 3]],
    # and dropping the free third column with the unit pivot would give (1, 2)
    assert smith_normal_form(IntMatrix(((2, 4, 3), (3, 5, 3)))) == (1, 1)
    assert smith_normal_form(IntMatrix(((2, 4), (3, 7)))) == (1, 2)
    assert smith_normal_form(IntMatrix(((2, 5), (3, 7), (4, 6)))) == (1, 1)
    # all sinks: n x 0; the empty graph: 0 x 0
    sinks = presentation_matrix(Graph(("a", "b"), ()))
    assert (sinks.rows, sinks.cols) == (2, 0) and smith_normal_form(sinks) == ()
    empty = presentation_matrix(Graph((), ()))
    assert (empty.rows, empty.cols) == (0, 0) and smith_normal_form(empty) == ()


def test_snf_matches_oracle_on_every_small_2x2():
    # every [[a, b], [c, d]] over {0, ±2, ±3, ±4, ±6}: few of these need the
    # second transpose round or the gcd/lcm pass, too few for hypothesis to
    # reach reliably, so sweep them all
    values = (0, 2, -2, 3, -3, 4, -4, 6, -6)
    for entries in product(values, repeat=4):
        m = (entries[:2], entries[2:])
        assert smith_normal_form(IntMatrix(m)) == oracle_invariant_factors(m), m


@settings(max_examples=150)
@given(int_matrices)
def test_snf_matches_minor_gcd_oracle(rows):
    entries = tuple(tuple(r) for r in rows)
    assert smith_normal_form(IntMatrix(entries)) == oracle_invariant_factors(entries)


@settings(max_examples=150)
@given(int_matrices)
def test_snf_rank_matches_bareiss(rows):
    entries = tuple(tuple(r) for r in rows)
    assert len(smith_normal_form(IntMatrix(entries))) == bareiss(entries)[0]


@given(int_matrices)
def test_snf_divisibility_chain(rows):
    factors = smith_normal_form(IntMatrix(tuple(tuple(r) for r in rows)))
    assert all(d > 0 for d in factors)
    assert all(a != 0 and b % a == 0 for a, b in zip(factors, factors[1:]))


def test_snf_survives_coefficient_blowup():
    # dense ill-conditioned entries force large intermediates
    rng = random.Random(7)
    entries = tuple(tuple(rng.randint(-99, 99) for _ in range(6)) for _ in range(6))
    factors = smith_normal_form(IntMatrix(entries))
    assert len(factors) == bareiss(entries)[0]


# sympy spends ~30 s on the sparse n = 100 draw below, which has two nonunit
# factors (at n = 200 it ran for minutes), so its factors are recorded here
# beside a digest of the drawn matrix: a draw that drifts fails instead of
# meeting a stale recording.  With LEAVITT_LIVE_SYMPY=1 (one CI step) the
# factors are recomputed by sympy and must equal the recording.
SYMPY_SPARSE_100 = ("e34f7dc2de5c1aa18047f4869864300e1f2dfb8b30f7cc209aaf22b58d09103f",
                    (1,) * 98 + (2, 5923806))


@pytest.mark.parametrize("kind", ["dense", "sinks", "sparse"])
def test_snf_matches_sympy(kind):
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    live = os.environ.get("LEAVITT_LIVE_SYMPY") == "1"
    rng = random.Random(f"sympy:{kind}")
    for n in (20, 30, 40, 60, 80, 100) if kind == "sparse" else (20, 30, 40):
        m = 3 * n if kind == "sparse" else n * n // 2
        b = presentation_matrix(sink_free_multigraph(rng, n, m, n // 5 if kind == "sinks" else 0))
        if n == 100:
            digest, expected = SYMPY_SPARSE_100
            assert hashlib.sha256(repr(b.entries).encode()).hexdigest() == digest
        if n != 100 or live:
            factors = tuple(abs(int(d)) for d in invariant_factors(Matrix(b.entries), domain=ZZ) if d)
            if n == 100:
                assert factors == expected
            expected = factors
        assert smith_normal_form(b) == expected


_unit_rich = st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -5))


def _moved(rows: list[list[int]], rng: random.Random) -> list[list[int]]:
    """The rows and columns of ``rows`` permuted and their signs flipped."""
    r, c = len(rows), len(rows[0])
    pr, pc = rng.sample(range(r), r), rng.sample(range(c), c)
    sr, sc = [rng.choice((1, -1)) for _ in range(r)], [rng.choice((1, -1)) for _ in range(c)]
    return [[sr[i] * sc[j] * rows[pr[i]][pc[j]] for j in range(c)] for i in range(r)]


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(lambda d: _shaped(*d, _unit_rich)),
       st.integers(0, 2**32 - 1))
def test_snf_does_not_depend_on_pivot_order(rows, seed):
    # permuting rows and columns and flipping signs changes which ±1 the
    # sparse stage meets first and in what order, but not the factors
    assert smith_normal_form(IntMatrix(_moved(rows, random.Random(seed)))) == (
        smith_normal_form(IntMatrix(rows)))


@settings(max_examples=100, deadline=None)
@given(graphs(max_vertices=9, max_edges=24), st.integers(0, 2**32 - 1))
def test_snf_does_not_depend_on_declaration_order(g, seed):
    rng = random.Random(seed)
    shuffled = Graph(tuple(rng.sample(g.vertices, len(g.vertices))),
                     tuple(rng.sample(g.edges, len(g.edges))))
    assert smith_normal_form(presentation_matrix(shuffled)) == (
        smith_normal_form(presentation_matrix(g)))


def test_snf_hnf_unit_pivots_drop_out(monkeypatch):
    # [[2, 4, 3], [3, 5, 3]] has no ±1 entry, and its Hermite normal form
    # [[1, 1, 0], [0, 2, 3]] has one unit pivot: the next round gets only the
    # transpose of [[2, 3]], the row left once the unit pivot's row and column
    # drop out, and the unit pivot of its HNF [[1]] drops out in turn
    cores = []
    original = leavitt.ktheory._row_hnf
    monkeypatch.setattr(leavitt.ktheory, "_row_hnf",
                        lambda rows: cores.append([list(r) for r in rows]) or original(rows))
    assert smith_normal_form(IntMatrix(((2, 4, 3), (3, 5, 3)))) == (1, 1)
    assert cores == [[[2, 4, 3], [3, 5, 3]], [[2], [3]]]


def test_snf_matches_oracle_on_seeded_3x3_sweep(monkeypatch):
    # 3x3 matrices over {0, ±2, ±3, ±4, ±6} have no ±1 entry, so all their
    # work is in the HNF rounds; many need three or more, which the
    # hypothesis strategies rarely reach
    calls = []
    original = leavitt.ktheory._row_hnf
    monkeypatch.setattr(leavitt.ktheory, "_row_hnf",
                        lambda rows: calls.append(rows) or original(rows))
    rng = random.Random("snf:3x3")
    values = (0, 2, -2, 3, -3, 4, -4, 6, -6)
    later = 0
    for _ in range(3000):
        m = tuple(tuple(rng.choice(values) for _ in range(3)) for _ in range(3))
        calls.clear()
        assert smith_normal_form(IntMatrix(m)) == oracle_invariant_factors(m), m
        later += len(calls) >= 3
    assert later >= 300


def test_snf_factors_unchanged_on_the_benchmark_library_graphs():
    # every graph the benchmark's seed-1 library workload analyzes, written
    # by its own generator; the digest was recorded before the Hermite normal
    # form's unit pivots dropped out and before its insertions re-reduced
    # only the columns they changed
    import hashlib
    import importlib.util
    import tempfile
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.generate("library", 1, Path(tmp))
        paths = sorted({op["argv"][1] for op in ops if op["argv"][0] == "analyze"})
        texts = [(Path(tmp) / path).read_text(encoding="utf-8") for path in paths]
    digest = hashlib.sha256()
    for path, text in zip(paths, texts):
        factors = smith_normal_form(presentation_matrix(parse_graph(text)))
        digest.update(f"{path} {factors}\n".encode("utf-8"))
    assert len(paths) == 112
    assert digest.hexdigest() == (
        "c1a784c0080e4a5594a0f443f5a8f1976487693d509cc359e63fecab95c16a1b")


def test_snf_roadmap_gate():
    """Five dense n=60, m=2000 instances and a sparse n=200, m=600 one, each
    within a 1 s budget (smallest-entry elimination alone took 20-120 s at
    n=60).  All six have full rank, so the factors multiply to |det|."""
    cases = [(60, 2000, seed) for seed in range(5)] + [(200, 600, 0)]
    for n, m, seed in cases:
        b = presentation_matrix(sink_free_multigraph(random.Random(seed), n, m))
        start = time.perf_counter()
        factors = smith_normal_form(b)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, (n, m, seed, elapsed)
        rank, d = bareiss(b.entries)
        assert len(factors) == rank
        assert prod(factors) == abs(d)


def cycle(n: int, parallel: int) -> Graph:
    """The n-cycle v0 -> v1 -> ... -> v0 with ``parallel`` edges at each step."""
    vs = tuple(f"v{i}" for i in range(n))
    return Graph(vs, tuple(Edge(f"e{i}_{k}", vs[i], vs[(i + 1) % n])
                           for i in range(n) for k in range(parallel)))


@pytest.mark.parametrize("parallel, torsion, rank_k0", [
    (2, lambda n: (2**n - 1,), 0),  # I - 2P^t has determinant 1 - 2^n and cyclic cokernel
    (1, lambda n: (), 1),           # I - P^t has rank n - 1
], ids=["doubled", "plain"])
def test_cycles_at_scale_in_closed_form(parallel, torsion, rank_k0):
    # a dense n x n presentation would be 4 * 10^8 cells
    n = 20_000
    g = cycle(n, parallel)
    start = time.perf_counter()
    s = k_summary(g)
    elapsed = time.perf_counter() - start
    assert (s.torsion, s.rank_k0, s.singular_count) == (torsion(n), rank_k0, 0)
    assert elapsed < 2.0, elapsed
    tracemalloc.start()
    try:
        assert k_summary(g) == s
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000, peak


# ── rank formulas ─────────────────────────────────────────────────────────────


def test_summary_arrow_infinite_unit_rank():
    s = k_summary(arrow(), INF)
    assert s.rank_k0 == 1
    assert s.rank_k1 == INF
    assert s.torsion == ()
    assert s.singular_count == 1


def test_summary_single_loop():
    s = k_summary(single_loop(), 1)
    assert len(s.invariant_factors) == 0
    assert s.rank_k0 == 1
    assert s.rank_k1 == 2
    assert s.singular_count == 0
    assert 2 * s.rank_k0 - s.rank_k1 == s.singular_count


def test_summary_rose2():
    for r in (0, 1, 2, 3):
        s = k_summary(rose2(), r)
        assert (s.rank_k0, s.rank_k1, s.torsion) == (0, 0, ())
        assert s.invariant_factors == (1,)


@pytest.mark.parametrize("r", [-1, 1.5, "2", True])
def test_summary_rejects_a_bad_unit_rank(r):
    with pytest.raises(ValueError, match="^unit rank must be a nonnegative integer or INF$"):
        k_summary(rose2(), r)


def test_infinite_rank_collapses_when_k0_trivial():
    # rank inf times zero must not poison the sum: K0 of rose-2 is finite
    s = k_summary(rose2(), INF)
    assert s.rank_k1 == 0


@settings(max_examples=80, deadline=None)
@given(graphs(max_vertices=6, max_edges=12), st.integers(min_value=0, max_value=3))
def test_rank_identity(g, r):
    s = k_summary(g, r)
    assert (r + 1) * s.rank_k0 - s.rank_k1 == s.singular_count


@given(graphs(max_vertices=6, max_edges=12))
def test_cstar_rank_equality(g):
    s = k_summary(g, 0)
    assert s.rank_k1_cstar == s.rank_k1


def test_torsion_example():
    # two vertices, each with edges to both: B = I - A^t = [[0,-1],[-1,0]] -> K0 free rank 0
    g = Graph(
        ("a", "b"),
        tuple(
            (f"e{i}", s, d)
            for i, (s, d) in enumerate([("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")], 1)
        ),
    )
    s = k_summary(g, 0)
    assert s.invariant_factors == (1, 1)
    assert s.torsion == ()
    # rose with 3 loops: B = (-2): K0 = Z/2
    g3 = Graph(("v",), (("e", "v", "v"), ("f", "v", "v"), ("g", "v", "v")))
    assert k_summary(g3, 0).torsion == (2,)


# ── verdicts ──────────────────────────────────────────────────────────────────


def test_verdict_arrow():
    s = k_summary(arrow(), 0)
    assert not s.no_sinks
    assert s.criterion4 is False
    assert s.criterion5 is False


def test_verdict_single_loop():
    s = k_summary(single_loop(), 0)
    assert s.no_sinks
    assert s.criterion4 is True and s.criterion5 is True


def test_verdict_infinite_rank_note():
    s = k_summary(arrow(), INF)
    assert s.criterion5 is None
    assert s.criterion4 == s.no_sinks


def test_verdict_funnel():
    s = k_summary(funnel_into_cycle(), 0)
    assert s.no_sinks
    assert s.criterion4 == s.no_sinks and s.criterion5 == s.no_sinks


# the main theorem for finite graphs: each rank criterion holds exactly when
# the graph has no sinks


@settings(max_examples=80, deadline=None)
@given(graphs(max_vertices=6, max_edges=12), st.integers(min_value=0, max_value=3))
def test_consistency_on_hypothesis_graphs(g, r):
    s = k_summary(g, r)
    assert s.criterion4 == s.no_sinks and s.criterion5 == s.no_sinks


def test_consistency_on_seeded_batch():
    rng = random.Random(20260818)
    for _ in range(150):
        g = random_graph(rng, max_vertices=8, max_edges=16)
        for r in (0, 1, 2, 3):
            s = k_summary(g, r)
            assert s.criterion4 == s.no_sinks and s.criterion5 == s.no_sinks
            assert s.no_sinks == (not classify(g).sinks)


def test_analyze_runs_one_snf(tmp_path, monkeypatch, capsys):
    calls = []
    snf = leavitt.ktheory.smith_normal_form

    def counting(m):
        calls.append(m)
        return snf(m)

    monkeypatch.setattr(leavitt.ktheory, "smith_normal_form", counting)
    path = tmp_path / "funnel.txt"
    path.write_text(serialize_graph(funnel_into_cycle()), encoding="utf-8")
    for extra in ([], ["--unit-rank", "inf"]):
        calls.clear()
        assert run(["analyze", str(path), *extra]) == 0
        assert "is_ck true" in capsys.readouterr().out
        assert len(calls) == 1
