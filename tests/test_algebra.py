"""Symbolic Leavitt path algebra arithmetic.

The confluence oracle below re-derives the rewrite rule from scratch
(ff* = v - sum of the other ee*) and applies it at randomly chosen triggers;
normal_form must land on the same representative regardless of order.  Ring
axioms are sampled with seeded random elements.
"""

from __future__ import annotations

import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    TEXT_POOL,
    arrow,
    funnel_into_cycle,
    pool_graph,
    random_graph,
    rose2,
    single_loop,
    triangle,
    two_way_line,
)
from leavitt.algebra import (
    _COEFF_RE,
    CkFamily,
    CkReport,
    LpaElement,
    _meeting,
    _parse_path,
    degree,
    element,
    equals,
    format_element,
    format_family,
    normal_form,
    parse_element,
    parse_family,
    star,
    verify_ck_family,
    vertex_element,
)
from leavitt.corners import build_forest, corner_family, t_corner
from leavitt.graph import Edge, Graph, PathSeq, serialize_graph
from leavitt.moves import attach_head, expand_hereditary, expansion_family, subdivide_edge, subdivision_family


# ── independent reduction oracle ──────────────────────────────────────────────


def oracle_terms(g: Graph, terms: dict, rng: random.Random) -> dict:
    """Rewrite a term map to a fixpoint, choosing the trigger at random each
    step; every coefficient is converted with Fraction."""
    terms = {k: Fraction(c) for k, c in terms.items()}

    def bump(key, delta):
        new = terms.get(key, Fraction(0)) + delta
        if new:
            terms[key] = new
        else:
            terms.pop(key, None)

    while True:
        triggers = []
        for a, b in terms:
            if a.edges and b.edges and a.edges[-1] == b.edges[-1]:
                f = a.edges[-1]
                if f.name == min(e.name for e in g.out_edges(f.src)):
                    triggers.append((a, b))
        if not triggers:
            break
        a, b = rng.choice(sorted(triggers, key=lambda ab: (ab[0].sort_key(), ab[1].sort_key())))
        f = a.edges[-1]
        coeff = terms.pop((a, b))
        bump((a.drop_last(), b.drop_last()), coeff)
        for e in g.out_edges(f.src):
            if e.name != f.name:
                bump((a.drop_last().extend(e), b.drop_last().extend(e)), -coeff)
    return terms


def oracle_reduce(g: Graph, x: LpaElement, rng: random.Random) -> LpaElement:
    return element((c, a, b) for (a, b), c in oracle_terms(g, x.terms, rng).items())


def random_path(g: Graph, rng: random.Random, max_len: int = 3) -> PathSeq:
    p = PathSeq(rng.choice(g.vertices))
    for _ in range(rng.randint(0, max_len)):
        out = g.out_edges(p.target)
        if not out:
            break
        p = p.extend(rng.choice(out))
    return p


def random_term(g: Graph, rng: random.Random) -> tuple[Fraction, PathSeq, PathSeq]:
    """A random term ``(coeff, alpha, beta)`` with r(alpha) = r(beta)."""
    a = random_path(g, rng)
    edges = []
    at = a.target
    for _ in range(rng.randint(0, 3)):
        inc = g.in_edges(at)
        if not inc:
            break
        e = rng.choice(inc)
        edges.append(e)
        at = e.src
    edges.reverse()
    b = PathSeq(edges[0].src if edges else a.target, tuple(edges))
    coeff = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
    return coeff, a, b


def random_element(g: Graph, rng: random.Random, max_terms: int = 3) -> LpaElement:
    return element(random_term(g, rng) for _ in range(rng.randint(1, max_terms)))


def assert_canonical(x: LpaElement) -> None:
    """The form every element is built in; the constructor does not check it:
    each coefficient is a nonzero int or a Fraction whose denominator is not
    1 (one spelling per value), each pair of paths shares its range, and the
    text does not depend on the order the terms went in."""
    for (a, b), c in x.terms.items():
        assert c != 0, format_element(x)
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (c, format_element(x))
        assert a.target == b.target, format_element(x)
    reversed_in = LpaElement(dict(reversed(list(x.terms.items()))))
    assert format_element(reversed_in) == format_element(x)


def unmerged_text(*xs: LpaElement) -> str:
    """The elements' terms written one after another, like terms not merged."""
    parts = [format_element(x) for x in xs if x]
    return " ".join(p if p.startswith("-") else f"+ {p}" for p in parts)


# ── canonical form ────────────────────────────────────────────────────────────


def test_every_operation_returns_sorted_merged_elements():
    rng = random.Random(43)
    for g in (funnel_into_cycle(), two_way_line(), rose2()):
        for _ in range(30):
            x, y = random_element(g, rng, max_terms=5), random_element(g, rng, max_terms=5)
            ms = [random_term(g, rng) for _ in range(4)]
            c = Fraction(rng.choice([-3, -1, 2]), rng.choice([1, 2]))
            parsed = parse_element(g, unmerged_text(x, y, x))
            assert parsed == x + y + x
            for z in (
                element(ms + [(-c, a, b) for c, a, b in ms[:2]] + ms),
                x * y, x + y, x - y, -x, star(x), x.scaled(c), c * x, x * c, x.scaled(0),
                normal_form(g, x * y), parsed,
            ):
                assert_canonical(z)


# ── coefficients: an int, or a Fraction only when not integral ────────────────
#
# The reference below computes every term map with each coefficient converted
# with Fraction, as the algebra once stored them; the library must agree with
# it in value and in text.


def ref_element(triples) -> dict:
    acc: dict = {}
    for c, a, b in triples:
        acc[a, b] = acc.get((a, b), Fraction(0)) + Fraction(c)
    return {k: c for k, c in acc.items() if c}


def ref_combine(x: dict, y: dict, sign: int) -> dict:
    return ref_element([(c, a, b) for (a, b), c in x.items()]
                       + [(sign * Fraction(c), a, b) for (a, b), c in y.items()])


def ref_scaled(x: dict, s) -> dict:
    return ref_element([(Fraction(s) * c, a, b) for (a, b), c in x.items()])


def ref_star(x: dict) -> dict:
    return {(b, a): Fraction(c) for (a, b), c in x.items()}


def ref_mul(x: dict, y: dict) -> dict:
    """Products of terms by prefix cancellation, written out afresh."""
    out = []
    for (a, b), c in x.items():
        for (p, q), d in y.items():
            if b.source != p.source:
                continue
            m, k = len(b.edges), len(p.edges)
            if p.edges[:m] == b.edges:
                out.append((Fraction(c) * Fraction(d), PathSeq(a.source, a.edges + p.edges[m:]), q))
            elif b.edges[:k] == p.edges:
                out.append((Fraction(c) * Fraction(d), a, PathSeq(q.source, q.edges + b.edges[k:])))
    return ref_element(out)


def test_coefficients_match_fraction_reference():
    rng = random.Random(53)
    coeffs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(4, 2)]
    kinds = Counter()
    for g in (funnel_into_cycle(), two_way_line(), rose2()):
        for _ in range(40):
            xs, refs = [], []
            for _ in range(2):
                triples = [(rng.choice(coeffs), a, b) for _, a, b in (random_term(g, rng) for _ in range(4))]
                triples += triples[:2]  # repeated terms, so halves also sum to integers
                xs.append(element(triples))
                refs.append(ref_element(triples))
                pieces = unmerged_text(*(element([t]) for t in triples))
                assert parse_element(g, pieces).terms == refs[-1]
            (x, y), (rx, ry) = xs, refs
            s = rng.choice(coeffs + [0])
            cases = [
                (x, rx), (x + y, ref_combine(rx, ry, 1)), (x - y, ref_combine(rx, ry, -1)),
                (x + x, ref_combine(rx, rx, 1)), (-x, ref_scaled(rx, -1)),
                (x * y, ref_mul(rx, ry)), (x.scaled(s), ref_scaled(rx, s)), (s * x, ref_scaled(rx, s)),
                (x.scaled(2), ref_scaled(rx, 2)), (star(x), ref_star(rx)),
                (normal_form(g, x * y), oracle_terms(g, ref_mul(rx, ry), rng)),
                (parse_element(g, format_element(x)), rx),
            ]
            for got, want in cases:
                assert_canonical(got)
                assert got.terms == want
                assert format_element(got) == format_element(LpaElement(want))
                kinds.update("integral" if c.denominator == 1 else "half" for c in want.values())
    # both spellings occur, so neither half of the invariant is vacuous
    assert kinds["integral"] > 1000 and kinds["half"] > 500, kinds
    v = PathSeq("v")
    [c] = parse_element(rose2(), "1/2 * v + 1/2 * v").terms.values()
    assert type(c) is int and c == 1
    [c] = element([(Fraction(1, 2), v, v), (Fraction(1, 2), v, v)]).terms.values()
    assert type(c) is int and c == 1
    [c] = element([(Fraction(3, 2), v, v)]).scaled(Fraction(2, 3)).terms.values()
    assert type(c) is int and c == 1


def test_coefficients_must_be_exact():
    # a float or a string used to go through Fraction(): 0.1 became
    # 3602879701896397/36028797018963968 and "3/2" was parsed
    g = rose2()
    x = vertex_element(g, "v")
    v = PathSeq("v")
    for bad in (0.1, 1.0, "3/2", True, None):
        with pytest.raises(TypeError, match="int or a Fraction"):
            x * bad
        with pytest.raises(TypeError, match="int or a Fraction"):
            x.scaled(bad)
        with pytest.raises(TypeError, match="int or a Fraction"):
            element([(bad, v, v)])
        with pytest.raises(TypeError, match="int or a Fraction"):
            element([(1, v, v), (bad, v, v)])


def test_sort_key_orders_paths_as_edge_names_do():
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng, max_vertices=5, max_edges=12)
        paths = [random_path(g, rng, max_len=4) for _ in range(30)]
        by_names = sorted(paths, key=lambda p: (len(p.edges), p.source, [e.name for e in p.edges]))
        assert sorted(paths, key=lambda p: p.sort_key()) == by_names


# ── term products ─────────────────────────────────────────────────────────────


def test_ghost_cancellation():
    g = rose2()
    e_ghost = parse_element(g, "v ; e")  # e*
    e_edge = parse_element(g, "e ; v")
    f_edge = parse_element(g, "f ; v")
    assert e_ghost * e_edge == vertex_element(g, "v")
    assert e_ghost * f_edge == LpaElement()


def test_vertex_absorption():
    g = funnel_into_cycle()
    v1 = vertex_element(g, "1")
    a = parse_element(g, "a")
    v5 = vertex_element(g, "5")
    assert v1 * a == a
    assert a * vertex_element(g, "3") == a
    assert v5 * a == LpaElement()


def test_parsed_term_requires_common_range():
    g = funnel_into_cycle()
    with pytest.raises(ValueError, match="paths do not share a range"):
        parse_element(g, "a ; c")  # a ends at 3, c ends at 1


def test_element_rejects_zero_coefficient():
    g = rose2()
    v = PathSeq("v")
    e = PathSeq("v", (g.edge("e"),))
    with pytest.raises(ValueError, match="zero coefficient"):
        element([(Fraction(0), v, v)])
    with pytest.raises(ValueError, match="zero coefficient"):
        element([(0, e, e)])
    # a sum that cancels is zero, not an error
    assert element([(1, v, v), (-1, v, v)]) == LpaElement()


def test_element_requires_common_range():
    g = funnel_into_cycle()
    with pytest.raises(ValueError, match="share their range"):
        element([(1, PathSeq("1", (g.edge("a"),)), PathSeq("2", (g.edge("c"),)))])


def test_associativity_sampled():
    rng = random.Random(5)
    g = funnel_into_cycle()
    for _ in range(60):
        a, b, c = (element([random_term(g, rng)]) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_product_checks_the_one_new_joint():
    # LpaElement(terms) does not check its map, so a term whose paths end
    # apart can reach a product; growing one of its paths across the broken
    # joint raises, as building the path through PathSeq(...) does
    g = funnel_into_cycle()
    g1, a = g.edge("g1"), g.edge("a")
    bad = (PathSeq("5", (g1,)), PathSeq("1"))  # ends at 4 and at 1
    at_1, along_a = PathSeq("1"), PathSeq("1", (a,))
    with pytest.raises(ValueError, match="'a' does not start where the path ends"):
        LpaElement({bad: 1}) * LpaElement({(along_a, PathSeq("3")): 1})
    with pytest.raises(ValueError, match="'a' does not start where the path ends"):
        LpaElement({(PathSeq("3"), along_a): 1}) * LpaElement({bad[::-1]: 1})
    with pytest.raises(ValueError):
        PathSeq("5", (g1, a))
    # the same shapes with matching ranges multiply
    good = LpaElement({(at_1, at_1): 1})
    assert good * LpaElement({(along_a, PathSeq("3")): 1}) == parse_element(g, "a")
    assert LpaElement({(PathSeq("3"), along_a): 1}) * good == star(parse_element(g, "a"))


def test_product_keys_are_checked_paths():
    rng = random.Random(61)
    grown = 0
    for g in (funnel_into_cycle(), two_way_line(), rose2()):
        for _ in range(100):
            x, y = random_element(g, rng, max_terms=4), random_element(g, rng, max_terms=4)
            paths = {p for key in [*x.terms, *y.terms] for p in key}
            for key in (x * y).terms:
                for p in key:
                    assert PathSeq(p.source, p.edges) == p
                    grown += p not in paths
    assert grown > 250, grown  # paths the product grew, not only ones it was given


def test_star_involution_and_antimultiplicativity():
    rng = random.Random(6)
    g = funnel_into_cycle()
    for _ in range(40):
        x = random_element(g, rng)
        y = random_element(g, rng)
        assert star(star(x)) == x
        assert star(x * y) == star(y) * star(x)


def test_ring_identities_sampled():
    rng = random.Random(7)
    g = two_way_line()
    for _ in range(40):
        x, y, z = (random_element(g, rng) for _ in range(3))
        assert x + (-x) == LpaElement()
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z


# ── normal forms ──────────────────────────────────────────────────────────────


def test_ck2_reduces_to_zero():
    g = funnel_into_cycle()
    for v in g.vertices:
        out = g.out_edges(v)
        if not out:
            continue
        x = vertex_element(g, v) - parse_element(g, " + ".join(f"{e.name} ; {e.name}" for e in out))
        assert normal_form(g, x) == LpaElement()


def test_rose2_designated_rewrite():
    g = rose2()
    assert g._designated["v"].name == "e"
    assert funnel_into_cycle()._designated["4"].name == "f1"  # f1 < f2
    assert "2" not in arrow()._designated  # a sink
    ee = parse_element(g, "e ; e")
    expect = parse_element(g, "v - f ; f")
    assert normal_form(g, ee) == expect
    # ff* does not end in the designated edge e, so it is already normal
    ff = parse_element(g, "f ; f")
    assert normal_form(g, ff) == ff


def test_equals_examples():
    g = rose2()
    ck2 = parse_element(g, "e ; e + f ; f")
    assert equals(g, ck2, vertex_element(g, "v"))
    assert equals(g, LpaElement(), element(()))


def test_normal_form_idempotent_and_linear():
    rng = random.Random(11)
    g = funnel_into_cycle()
    for _ in range(40):
        x = random_element(g, rng)
        y = random_element(g, rng)
        nx = normal_form(g, x)
        assert normal_form(g, nx) == nx
        assert normal_form(g, x + y) == normal_form(g, nx + normal_form(g, y))


def test_confluence_against_random_order_oracle():
    for seed in range(40):
        rng = random.Random(1000 + seed)
        g = rng.choice([funnel_into_cycle(), rose2(), two_way_line(), triangle()])
        x = random_element(g, rng, max_terms=4)
        assert oracle_reduce(g, x, rng) == normal_form(g, x)


def test_equals_respects_ring_operations():
    rng = random.Random(13)
    g = rose2()
    v = vertex_element(g, "v")
    ck2 = parse_element(g, "e ; e + f ; f")
    for _ in range(20):
        z = random_element(g, rng)
        assert equals(g, v + z, ck2 + z)
        assert equals(g, v * z, ck2 * z)


# ── grading ───────────────────────────────────────────────────────────────────


def standard_weights(g: Graph) -> dict[str, int]:
    """Every edge weighs 1, so a term's degree is |alpha| - |beta|."""
    return {e.name: 1 for e in g.edges}


def test_degree_standard_weights():
    g = funnel_into_cycle()
    w = standard_weights(g)
    assert degree(g, vertex_element(g, "1"), w) == 0
    assert degree(g, parse_element(g, "a"), w) == 1
    assert degree(g, parse_element(g, "g1.f1 ; c"), w) == 1
    assert degree(g, LpaElement(), w) == 0


def test_degree_mixed_is_non_homogeneous():
    g = funnel_into_cycle()
    w = standard_weights(g)
    x = parse_element(g, "1 + a")
    assert degree(g, x, w) is None


def test_degree_requires_weights_for_surviving_edges():
    g = funnel_into_cycle()
    with pytest.raises(ValueError):
        degree(g, parse_element(g, "b"), {"a": 1})


def test_degree_computed_on_normal_form():
    # ee* + ff* is CK-2-equal to the degree-0 vertex even though raw terms
    # pair degree +1 left with -1 right
    g = rose2()
    x = parse_element(g, "e ; e + f ; f")
    assert degree(g, x, standard_weights(g)) == 0


# ── omega elements ────────────────────────────────────────────────────────────


def test_omega_unitary_after_normal_form():
    # omega = alpha lam alpha* for the exit-free 3-cycle lam = a.b.c and
    # alpha = f1: both products collapse to the projection f1 f1*, the cycle
    # telescoping through the exit-free CK-2 relations
    g = funnel_into_cycle()
    om = parse_element(g, "f1.a.b.c ; f1")
    left = om * star(om)
    right = star(om) * om
    assert equals(g, left, right)
    assert equals(g, left, parse_element(g, "f1 ; f1"))


# ── family verification ───────────────────────────────────────────────────────


def identity_family(g: Graph) -> CkFamily:
    return CkFamily(
        {v: vertex_element(g, v) for v in g.vertices},
        {e.name: element([(1, PathSeq(e.src, (e,)), PathSeq(e.dst))]) for e in g.edges},
    )


def test_identity_family_passes():
    for g in (funnel_into_cycle(), rose2(), triangle()):
        report = verify_ck_family(g, identity_family(g), g)
        assert report.ok and report.failures == ()


def test_expansion_family_passes():
    g = funnel_into_cycle()
    hs = ["1", "2", "3"]
    report = verify_ck_family(expand_hereditary(g, hs), expansion_family(g, hs), g)
    assert report.ok, report.failures


def test_subdivision_family_passes():
    g = triangle()
    target = attach_head(g, "u", 3)  # r(alpha) = u
    host = subdivide_edge(g, "alpha", 3)
    report = verify_ck_family(target, subdivision_family(g, "alpha", 3), host)
    assert report.ok, report.failures


def test_verify_stars_each_edge_image_once(monkeypatch):
    import leavitt.algebra

    starred = []
    real_star = leavitt.algebra.star
    monkeypatch.setattr(leavitt.algebra, "star", lambda x: starred.append(x) or real_star(x))
    g = funnel_into_cycle()
    fam = identity_family(g)
    assert verify_ck_family(g, fam, g).ok
    assert len(starred) == len(g.edges)
    assert sorted(map(format_element, starred)) == sorted(
        format_element(fam.edge_images[e.name]) for e in g.edges
    )


def test_family_completeness_required():
    g = rose2()
    fam = identity_family(g)
    broken = CkFamily(fam.vertex_images, {"e": fam.edge_images["e"]})
    with pytest.raises(ValueError):
        verify_ck_family(g, broken, g)


def test_family_zero_vertex_image_flagged():
    g = rose2()
    fam = identity_family(g)
    hidden_zero = parse_element(g, "v - e ; e - f ; f")
    bad = CkFamily({"v": hidden_zero}, fam.edge_images)
    report = verify_ck_family(g, bad, g)
    assert not report.ok
    assert any(f.startswith("nonzero: vertex image v") for f in report.failures)


def test_family_orthogonality_flagged():
    g = funnel_into_cycle()
    fam = identity_family(g)
    vi = dict(fam.vertex_images)
    vi["2"] = vi["1"]
    report = verify_ck_family(g, CkFamily(vi, fam.edge_images), g)
    assert not report.ok
    assert any(f.startswith("orthogonal idempotents:") for f in report.failures)


def test_family_swap_mutation_names_ck1():
    # swapping the parallel edges f1, f2 is a graph automorphism and must
    # still pass; swapping the non-parallel a, b must fail CK-1
    g = funnel_into_cycle()
    fam = identity_family(g)
    ei = dict(fam.edge_images)
    ei["f1"], ei["f2"] = ei["f2"], ei["f1"]
    assert verify_ck_family(g, CkFamily(fam.vertex_images, ei), g).ok
    ei = dict(fam.edge_images)
    ei["a"], ei["b"] = ei["b"], ei["a"]
    report = verify_ck_family(g, CkFamily(fam.vertex_images, ei), g)
    assert not report.ok
    assert any(f.startswith("CK-1:") for f in report.failures)


def test_family_ck2_flagged():
    g = rose2()
    fam = identity_family(g)
    ei = dict(fam.edge_images)
    ei["f"] = parse_element(g, "e")  # now sum ee* over images != v
    report = verify_ck_family(g, CkFamily(fam.vertex_images, ei), g)
    assert not report.ok
    assert any(f.startswith("CK-2: v") for f in report.failures)


# ── the products verify skips ─────────────────────────────────────────────────


def ref_normal_form(g: Graph, terms: dict) -> dict:
    """A term map rewritten to its normal form, written out afresh: the
    designated edge is re-derived as the least-named out-edge, every path is
    built through the checking ``PathSeq(...)`` constructor, and every
    coefficient is a Fraction."""
    out: dict = {}
    work = [(key, Fraction(c)) for key, c in terms.items()]
    while work:
        (a, b), c = work.pop()
        if a.edges and b.edges and a.edges[-1] == b.edges[-1]:
            f, outs = a.edges[-1], g.out_edges(a.edges[-1].src)
            if f.name == min(e.name for e in outs):
                work.append(((PathSeq(a.source, a.edges[:-1]), PathSeq(b.source, b.edges[:-1])), c))
                work += [((PathSeq(a.source, a.edges[:-1] + (e,)), PathSeq(b.source, b.edges[:-1] + (e,))), -c)
                         for e in outs if e.name != f.name]
                continue
        out[a, b] = out.get((a, b), Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


def all_pairs_verify(target: Graph, family: CkFamily, host: Graph) -> CkReport:
    """The relation checker with every (v, w) and (e, f) product formed, each
    by the reference product ``ref_mul`` and compared by ``ref_normal_form``
    of the difference, so it shares no arithmetic with the library: the
    reference that ``verify_ck_family``, which skips the pairs that cannot
    meet, must agree with line for line."""
    q = {v: x.terms for v, x in family.vertex_images.items()}
    t = {name: x.terms for name, x in family.edge_images.items()}

    def same(x: dict, y: dict) -> bool:
        return not ref_normal_form(host, ref_combine(x, y, -1))

    fails = [f"nonzero: vertex image {v} reduces to 0"
             for v in target.vertices if not ref_normal_form(host, q[v])]
    for v in target.vertices:
        for w in target.vertices:
            if not same(ref_mul(q[v], q[w]), q[v] if v == w else {}):
                fails.append(f"orthogonal idempotents: {v},{w}")
    for e in target.edges:
        te, se = t[e.name], ref_star(t[e.name])
        if not same(ref_mul(q[e.src], te), te) or not same(ref_mul(te, q[e.dst]), te):
            fails.append(f"absorption: {e.name}")
        if not same(ref_mul(q[e.dst], se), se) or not same(ref_mul(se, q[e.src]), se):
            fails.append(f"ghost absorption: {e.name}")
    for e in target.edges:
        for f in target.edges:
            want = q[e.dst] if e.name == f.name else {}
            if not same(ref_mul(ref_star(t[e.name]), t[f.name]), want):
                fails.append(f"CK-1: {e.name},{f.name}")
    for v in target.vertices:
        outs = target.out_edges(v)
        if outs:
            total: dict = {}
            for e in outs:
                total = ref_combine(total, ref_mul(t[e.name], ref_star(t[e.name])), 1)
            if not same(q[v], total):
                fails.append(f"CK-2: {v}")
    return CkReport(tuple(fails))


def verify_cases(seed: int) -> list[tuple[Graph, CkFamily, Graph]]:
    """Seeded ``(target, family, host)`` triples: corner families of random
    sink-free hosts, each also with one edge image doubled (CK-1 at (e, e)
    and CK-2 at s(e) break), and families of random elements, which fail
    most relations and whose products are often nonzero."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < 24:
        g = random_graph(rng, max_vertices=7, max_edges=14, no_sinks=True)
        try:
            t = build_forest(g, rng.sample(g.vertices, rng.randint(1, 2)))
        except ValueError:  # every vertex a root, or fewer than two vertices
            continue
        target = t_corner(g, t)
        if not target.edges:
            continue
        fam = corner_family(g, t)
        cases.append((target, fam, g))
        e = rng.choice(target.edges)
        doubled = dict(fam.edge_images, **{e.name: fam.edge_images[e.name].scaled(2)})
        cases.append((target, CkFamily(fam.vertex_images, doubled), g))
    for _ in range(24):
        host = random_graph(rng, max_vertices=4, max_edges=8)
        target = random_graph(rng, max_vertices=4, max_edges=6)
        cases.append((target, CkFamily(
            {v: random_element(host, rng) for v in target.vertices},
            {e.name: random_element(host, rng) for e in target.edges},
        ), host))
    return cases


def test_verify_skips_only_zero_products():
    skipped = met = 0
    for target, fam, host in verify_cases(23):
        q = [fam.vertex_images[v] for v in target.vertices]
        t = [fam.edge_images[e.name] for e in target.edges]
        for lefts, rights in ((q, q), ([star(x) for x in t], t)):
            for i, meets in enumerate(_meeting(lefts, rights)):
                for j, y in enumerate(rights):
                    if j in meets:
                        met += i != j
                        continue
                    product = lefts[i] * y
                    assert not normal_form(host, product), (i, j)
                    assert product == LpaElement()  # no term pair meets, so not a single term
                    skipped += i != j
    # both kinds of off-diagonal pair occur, so neither branch is vacuous
    assert skipped > 1000 and met > 100, (skipped, met)


def test_verify_matches_all_pairs_reference():
    failing = 0
    for target, fam, host in verify_cases(29):
        report = verify_ck_family(target, fam, host)
        assert report == all_pairs_verify(target, fam, host)
        failing += not report.ok
    assert failing >= 36  # the doubled corner families and the random ones


# Rational orthogonal matrices (U U^t = I): mixing a group of parallel edges
# e_1..e_k by one, T_{e_i} = sum_j U_ij e_j, is again a Cuntz-Krieger family,
# and its relations hold only once the products' Fraction coefficients are
# summed, e.g. 1/9 + 4/9 + 4/9 = 1 in T_e* T_e.  The skewed matrices have
# rows that are neither unit nor orthogonal, so the mix breaks CK-1 and CK-2.
ORTHOGONAL = {2: ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5))),
              3: tuple(tuple(Fraction(c, 3) for c in row) for row in ((1, 2, 2), (2, 1, -2), (2, -2, 1)))}
SKEWED = {2: ((Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), Fraction(1, 3))),
          3: tuple(tuple(Fraction(c, 3) for c in row) for row in ((1, 2, 2), (2, 1, 2), (2, 2, 1)))}


def mixed_cases(seed: int, count: int) -> list[tuple[Graph, CkFamily, Graph]]:
    """Seeded ``(host, family, host)`` triples: the identity family of a random
    multigraph with groups of two or three parallel edges, each group mixed by
    ``ORTHOGONAL``; in every other case one group is mixed by ``SKEWED``."""
    rng = random.Random(seed)
    cases: list = []
    while len(cases) < count:
        vs = [f"v{i}" for i in range(rng.randint(1, 4))]
        groups = []
        for i in range(rng.randint(1, 2 * len(vs))):
            a, b, k = rng.choice(vs), rng.choice(vs), rng.choice((1, 2, 3))
            groups.append([Edge(f"e{i}{j}", a, b) for j in "xyz"[:k]])
        wide = [group for group in groups if len(group) > 1]
        if not wide:
            continue
        skewed = rng.choice(wide) if len(cases) % 2 else None
        g = Graph(vs, [e for group in groups for e in group])
        images = {}
        for group in groups:
            u = ((1,),) if len(group) == 1 else (SKEWED if group is skewed else ORTHOGONAL)[len(group)]
            for row, e in zip(u, group):
                images[e.name] = element((c, PathSeq(f.src, (f,)), PathSeq(f.dst)) for c, f in zip(row, group))
        cases.append((g, CkFamily({v: vertex_element(g, v) for v in vs}, images), g))
    return cases


def test_verify_matches_all_pairs_reference_on_fraction_mixed_families():
    ok = 0
    for target, fam, host in mixed_cases(31, 60):
        assert any(type(c) is Fraction for x in fam.edge_images.values() for c in x.terms.values())
        report = verify_ck_family(target, fam, host)
        assert report == all_pairs_verify(target, fam, host)
        ok += report.ok
    assert ok == 30  # every orthogonal mix passes and every skewed one fails


def corner_case_159():
    """A seeded single-root corner family of 159 edges, all its coefficients
    ±1: ``(host, forest, corner graph, family)``."""
    rng = random.Random(0)
    n = rng.randint(8, 16)
    vs = [f"v{i}" for i in range(n)]
    es = [Edge(f"c{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    es += [Edge(f"r{k}", rng.choice(vs), rng.choice(vs)) for k in range(rng.randint(n, 2 * n))]
    g = Graph(vs, es)
    t = build_forest(g, ["v0"])
    return g, t, t_corner(g, t), corner_family(g, t)


def test_verify_products_linear_in_family_size(monkeypatch):
    # checking every pair of the 159-edge corner family forms
    # V^2 + E^2 + 5E = 26,220 products
    g, t, target, fam = corner_case_159()
    v, e = len(target.vertices), len(target.edges)
    assert (v, e) == (12, 159)

    import leavitt.algebra

    calls = []  # every product, whether x * y or one added into a relation's term map
    real_product = leavitt.algebra._product_into
    monkeypatch.setattr(leavitt.algebra, "_product_into",
                        lambda acc, x, y: calls.append(1) or real_product(acc, x, y))
    assert verify_ck_family(target, fam, g).ok

    def nested(us) -> int:
        """Ordered pairs of distinct forest vertices, one above the other."""
        paths = [t.tau(u) for u in us]
        return sum(a != b and a.source == b.source and (a.edges == b.edges[:len(a.edges)]
                                                        or b.edges == a.edges[:len(b.edges)])
                   for a in paths for b in paths)

    below: dict[str, list[str]] = {}  # host edge -> the u of its corner edges e_u
    for x in target.edges:
        name, u = x.name.rsplit("_", 1)
        below.setdefault(name, []).append(u)
    # V diagonal orthogonality, 4E absorption, E diagonal CK-1 and E CK-2
    # products, plus exactly the pairs whose images meet: q_u q_w and
    # T_{e_u}* T_{e_w} for u above w or below it
    meeting = nested(target.vertices) + sum(nested(us) for us in below.values())
    assert len(calls) == v + 6 * e + meeting
    assert 10 * len(calls) < e * e


def test_verify_builds_no_fraction_on_integer_family(monkeypatch):
    # integer coefficients stay machine ints through every product and
    # normal form; the same family with each coefficient a Fraction gets
    # the same report, so the counter below is not vacuous
    g, _, target, fam = corner_case_159()
    as_fractions = CkFamily(*({k: LpaElement({key: Fraction(c) for key, c in x.terms.items()})
                               for k, x in images.items()} for images in fam))
    made = []
    real_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda cls, *a, **kw: made.append(a) or real_new(cls, *a, **kw)))
    if hasattr(Fraction, "_from_coprime_ints"):  # how Fraction arithmetic builds results from 3.12
        real_from = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(lambda cls, n, d: made.append((n, d)) or real_from(cls, n, d)))
    report = verify_ck_family(target, fam, g)
    assert report.ok and made == []
    assert verify_ck_family(target, as_fractions, g) == report
    assert made


# ── element text syntax ───────────────────────────────────────────────────────


def diamond() -> Graph:
    return Graph(
        ("u", "v", "w"),
        (Edge("a", "u", "v"), Edge("b", "v", "w"), Edge("c", "u", "w")),
    )


def test_parse_element_input_shapes():
    g = diamond()
    x = parse_element(g, "3/2 * a.b ; c")
    [((left, right), c)] = x.terms.items()
    assert c == Fraction(3, 2)
    assert left.label() == "a.b"
    assert right.label() == "c"
    assert format_element(x) == "3/2 * a.b ; c"


def test_parse_vertex_and_sums():
    g = diamond()
    assert parse_element(g, "u") == vertex_element(g, "u")
    x = parse_element(g, "u - 2*a ; a")
    aa = PathSeq("u", (g.edge("a"),))
    assert x == vertex_element(g, "u") - element([(2, aa, aa)])


def test_parse_zero_forms():
    # zero is the empty text; "0" is read as the name it is, like any other
    g = diamond()
    assert parse_element(g, "") == parse_element(g, " \t") == LpaElement()
    assert format_element(LpaElement()) == "" and repr(LpaElement()) == "LpaElement('')"
    with pytest.raises(ValueError, match="^cannot read '0' as a vertex or path$"):
        parse_element(g, "0")
    zg = Graph(("0", "v"), (Edge("e", "v", "0"),))
    for x in (LpaElement(), vertex_element(zg, "0"), 2 * vertex_element(zg, "0")):
        assert parse_element(zg, format_element(x)) == x
    assert format_element(vertex_element(zg, "0")) == "0"
    eg = Graph(("r",), (Edge("0", "r", "r"),))
    loop = element([(1, PathSeq("r", (eg.edge("0"),)), PathSeq("r"))])
    assert format_element(loop) == "0" and parse_element(eg, "0") == loop
    assert parse_element(eg, "0.0 ; 0") == loop * loop * star(loop)
    both = Graph(("0", "r"), (Edge("0", "r", "r"),))
    for text in ("0", "2 * 0", "r - 0 ; 0"):
        with pytest.raises(ValueError, match="^ambiguous path '0'$"):
            parse_element(both, text)


def test_parse_rejects_ambiguous_path():
    g = Graph(
        ("x", "y", "z"),
        (Edge("a", "x", "y"), Edge("b", "y", "z"), Edge("a.b", "x", "z")),
    )
    with pytest.raises(ValueError, match="ambiguous"):
        parse_element(g, "a.b")


def test_parse_reports_ambiguity_in_bounded_time():
    # 40 segments of loops a and a.a have over 10^8 readings
    rose = Graph(("v",), (Edge("a", "v", "v"), Edge("a.a", "v", "v")))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="ambiguous path"):
        parse_element(rose, ".".join(["a"] * 40))
    assert time.perf_counter() - start < 1.0


def test_parse_long_path_of_move_generated_names():
    g = subdivide_edge(single_loop(), "e", 12)  # edges e.e1 .. e.e13 around v
    names = [f"e.e{i}" for i in range(13, 0, -1)] * 3
    x = parse_element(g, ".".join(names))
    assert x == element([(1, PathSeq("v", tuple(map(g.edge, names))), PathSeq("v"))])
    with pytest.raises(ValueError, match="cannot read"):
        parse_element(g, ".".join(names[1:] + ["e"]))


def test_parse_path_split_matches_dynamic_program():
    # a host with no dot in an edge name reads a token by splitting it at its
    # dots; the same host plus a disjoint loop named "z.z" reads it through
    # the dynamic program, which must give the same path or the same error
    rng = random.Random(53)
    outcomes = Counter()
    for _ in range(200):
        g = random_graph(rng, max_vertices=6, max_edges=12)
        dp = Graph(g.vertices + ("zz",), g.edges + (Edge("z.z", "zz", "zz"),))
        assert (g._edge_name_dots, dp._edge_name_dots) == (0, 1)
        for _ in range(20):
            if g.edges and rng.random() < 0.4:  # a path, often connected
                walk = [rng.choice(g.edges)]
                while rng.random() < 0.7 and g.out_edges(walk[-1].dst):
                    walk.append(rng.choice(g.out_edges(walk[-1].dst)))
                pieces = [e.name for e in walk]
            else:  # unknown names, empty pieces, vertices, edges out of order
                pool = [e.name for e in g.edges] + list(g.vertices) + ["", "q", "e1x"]
                pieces = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
            token = ".".join(pieces)
            try:
                want = ("ok", _parse_path(dp, token))
            except ValueError as err:
                want = ("error", str(err))
            try:
                got = ("ok", _parse_path(g, token))
            except ValueError as err:
                got = ("error", str(err))
            assert got == want, token
            outcomes[want[0] if want[0] == "ok" else want[1].split()[0]] += 1
    assert min(outcomes["ok"], outcomes["cannot"], outcomes["empty"]) > 50, outcomes


def test_vertex_name_shadows_edge_name():
    g = Graph(("e",), (Edge("e", "e", "e"),))
    with pytest.raises(ValueError, match=r"^ambiguous path 'e'$"):
        parse_element(g, "e")
    x = parse_element(g, "e.e")
    [(left, _)] = x.terms
    assert left.edges == (g.edge("e"), g.edge("e"))
    # the path along x then y is written "x.y", which is also the vertex x.y
    g = Graph(("r", "m", "x.y"), (Edge("x", "r", "m"), Edge("y", "m", "x.y")))
    for text in ("x.y", "x.y ; x.y"):
        with pytest.raises(ValueError, match=r"^ambiguous path 'x.y'$"):
            parse_element(g, text)
    # tokens with one reading are still read
    assert format_element(parse_element(g, "r + y ; y - x ; x")) == "r + y ; y - x ; x"


def test_parse_rejects_garbage():
    g = diamond()
    with pytest.raises(ValueError):
        parse_element(g, "q")
    for text in ("a.q", "b.a"):  # an unknown edge name; edges that do not compose
        with pytest.raises(ValueError, match=f"^cannot read '{text}' as a vertex or path$"):
            parse_element(g, text)
    with pytest.raises(ValueError):
        parse_element(g, "a ; b")  # ranges differ: v vs w
    with pytest.raises(ValueError, match="zero denominator"):
        parse_element(g, "3/0 * u")
    for text in ("\u0663*u", "1/\u0662*u", "\uff12*u"):  # digits of other scripts
        with pytest.raises(ValueError, match="cannot read"):
            parse_element(g, text)


def parse_element_reference(g: Graph, text: str) -> LpaElement:
    """The element parser with its earlier hand-written sign/term loop."""
    s = "".join(text.split())
    if not s:
        return LpaElement()
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
    out = []
    for sgn, term in terms:
        coeff = Fraction(sgn)
        m = _COEFF_RE.match(term)
        if m:
            try:
                coeff *= Fraction(m.group(1))
            except ZeroDivisionError:
                raise ValueError(f"coefficient {m.group(1)!r} has a zero denominator") from None
            term = term[m.end():]
        if ";" in term:
            a_text, _, b_text = term.partition(";")
            alpha, beta = _parse_path(g, a_text), _parse_path(g, b_text)
        else:
            alpha = _parse_path(g, term)
            beta = PathSeq(alpha.target)
        if alpha.target != beta.target:
            raise ValueError(f"term {term!r}: paths do not share a range")
        out.append((coeff, alpha, beta))
    return element(out)


def test_parse_element_matches_reference_term_loop():
    # names with dots and a vertex "0", so "0", "a.b" and "2*0" all mean something
    g = Graph(("0", "2"), (Edge("a", "0", "2"), Edge("b", "2", "0"), Edge("a.b", "0", "0")))
    rng = random.Random(71)
    alphabet = "ab02.+-*/; "
    outcomes = Counter()
    for _ in range(20_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        try:
            want = ("ok", parse_element_reference(g, text).terms)
        except ValueError as err:
            want = ("error", str(err))
        try:
            got = ("ok", parse_element(g, text).terms)
        except ValueError as err:
            got = ("error", str(err))
        assert got == want, text
        outcomes[want[1] if want == ("error", "empty term") else want[0]] += 1
    assert min(outcomes["ok"], outcomes["empty term"], outcomes["error"]) > 1000, outcomes


def clashing_names() -> Graph:
    """A vertex and an edge both named a, and a vertex x.y beside composable
    edges x and y, so some paths are written as a vertex name is."""
    return Graph(("r", "a", "m", "x.y"), (
        Edge("a", "r", "a"), Edge("l", "a", "a"), Edge("x", "r", "m"),
        Edge("y", "m", "x.y"), Edge("w", "x.y", "r"), Edge("k", "a", "m")))


def test_format_parse_round_trip_sampled():
    rng = random.Random(17)
    g = funnel_into_cycle()
    for _ in range(40):
        x = random_element(g, rng)
        assert parse_element(g, format_element(x)) == x
    # where a written path is also a vertex name, the text is refused, never
    # read back as a different element
    g = clashing_names()
    outcomes = Counter()
    for _ in range(200):
        x = random_element(g, rng)
        try:
            back = parse_element(g, format_element(x))
        except ValueError as err:
            assert re.fullmatch(r"ambiguous path '(a|x\.y)'", str(err)), err
            outcomes["ambiguous"] += 1
        else:
            assert back == x
            outcomes["equal"] += 1
    assert min(outcomes["ambiguous"], outcomes["equal"]) > 20, outcomes


def test_element_text_never_reads_back_as_another_element():
    # vertex and edge names from one pool of numerals and dotted names, so
    # "0" may name a vertex, an edge, both or nothing, and a name may spell a
    # path: the text of every element, zero included, reads back as that
    # element or is refused as ambiguous
    rng = random.Random(3701)
    outcomes = Counter()
    for _ in range(2_000):
        g = pool_graph(rng, TEXT_POOL)
        for _ in range(10):
            x = random_element(g, rng) if rng.random() < 0.95 else LpaElement()
            text = format_element(x)
            try:
                back = parse_element(g, text)
            except ValueError as err:
                assert str(err).startswith("ambiguous path "), (serialize_graph(g), text, err)
                outcomes["ambiguous"] += 1
            else:
                assert back == x, (serialize_graph(g), text)
                outcomes["equal" if x else "zero"] += 1
            outcomes["token 0"] += "0" in re.findall(r"[^\s+;*-]+", text)
    assert outcomes.total() - outcomes["token 0"] == 20_000, outcomes
    assert min(outcomes["ambiguous"], outcomes["zero"]) > 500, outcomes
    assert outcomes["equal"] > 5_000 and outcomes["token 0"] > 2_000, outcomes


def test_format_parse_round_trip_past_the_integer_string_limit():
    # 5,000-digit coefficients, past the interpreter's int()/str() limit
    g = funnel_into_cycle()
    n, d = "3" + "1" * 4999, "7" * 5000
    for text in (f"{n} * g1", f"-{n}/{d} * g1 ; g1", f"-{n} * f1 + g1"):
        x = parse_element(g, text)
        assert format_element(x) == text
    assert parse_element(g, f"{n}/{n} * g1") == parse_element(g, "g1")


def test_format_leading_negative():
    g = diamond()
    x = -vertex_element(g, "u")
    assert format_element(x) == "-u"
    assert parse_element(g, "-u") == x


# ── family files ──────────────────────────────────────────────────────────────


def test_family_file_round_trip():
    g = funnel_into_cycle()
    hs = ["1", "2", "3"]
    target = expand_hereditary(g, hs)
    fam = expansion_family(g, hs)
    text = format_family(target, fam)
    # comment lines and blank lines are skipped
    target2, fam2 = parse_family("# expansion family\n\n" + text + "\n   \n", g)
    assert target2 == target
    assert fam2.vertex_images == fam.vertex_images
    assert fam2.edge_images == fam.edge_images


def test_family_file_rejects_malformed():
    g = rose2()
    with pytest.raises(ValueError):
        parse_family("vertex v\n", g)
    with pytest.raises(ValueError):
        parse_family("edge e v = v\n", g)
    with pytest.raises(ValueError):
        parse_family("vertex v = v\nvertex v = v\n", g)
    with pytest.raises(ValueError, match="^line 5: duplicate edge 'a'$"):
        parse_family("# two loops\nvertex v = v\n\nedge a v v = e\nedge a v v = f\n", g)
