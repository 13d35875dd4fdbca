"""Acceptance gate: ten end-to-end criteria with pinned time budgets.

Each test prints a single ``criterion NN <label>: pass/FAIL`` line directly to
the terminal (bypassing capture) so a full run leaves a visible scorecard.
Budgets are wall-clock seconds measured with ``time.monotonic``.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import random
import time
from pathlib import Path

from conftest import (
    funnel_into_cycle,
    k0_data,
    loops_and_chords,
    random_graph,
    rose2,
    single_loop,
    triangle,
    two_way_line,
)
from test_ktheory import oracle_invariant_factors
import leavitt
from leavitt.algebra import CkFamily, degree, verify_ck_family
from leavitt.cli import run
from leavitt.corners import build_forest, corner_family, corner_weights, t_corner
from leavitt.graph import Edge, Graph, classify, graph_hash, hs_closure, serialize_graph
from leavitt.ktheory import INF, IntMatrix, k_summary, smith_normal_form
from leavitt.monoid import Decision, MonoidElement, equivalent, is_full, rebalance_full
from leavitt.moves import (
    attach_head,
    attach_sources,
    desourcify,
    entry_paths,
    expand_hereditary,
    expansion_family,
    parse_trace,
    replay,
    serialize_trace,
    subdivide_edge,
    subdivision_family,
)


@contextlib.contextmanager
def criterion(capsys, number: int, label: str, budget: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {number:02d} {label}: FAIL")
        raise
    elapsed = time.monotonic() - start
    verdict = "pass" if elapsed <= budget else "FAIL (over time budget)"
    with capsys.disabled():
        print(f"\ncriterion {number:02d} {label}: {verdict} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed <= budget, f"criterion {number} took {elapsed:.2f}s > {budget}s"


def test_criterion_01_hereditary_expansion(capsys):
    with criterion(capsys, 1, "hereditary expansion of the funnel", 1.0):
        g = funnel_into_cycle()
        hs = ["1", "2", "3"]
        out = expand_hereditary(g, hs)
        assert (len(out.vertices), len(out.edges)) == (7, 7)
        paths = entry_paths(g, hs)
        assert [p.label for p in paths] == ["f1", "f2", "g1.f1", "g1.f2"]
        assert all(p.label == p.path.label() for p in paths)


def test_criterion_02_head_subdivision_sources(capsys):
    with criterion(capsys, 2, "head, subdivision, and source attachments", 1.0):
        tri = triangle()
        head = attach_head(tri, "v", 3)
        assert (len(head.vertices), len(head.edges)) == (6, 6)
        assert classify(head).sources == ("v.h3",) and classify(head).sinks == ()
        sub = subdivide_edge(tri, "alpha", 3)
        assert (len(sub.vertices), len(sub.edges)) == (6, 6)
        assert classify(sub).sources == () and classify(sub).sinks == ()
        src = attach_sources(tri, "v", 3)
        assert (len(src.vertices), len(src.edges)) == (6, 6)
        assert classify(src).sources == ("v.s1", "v.s2", "v.s3")
        assert classify(src).sinks == ()


def test_criterion_03_corner_reproductions(capsys):
    with criterion(capsys, 3, "corner graphs of the worked forests", 5.0):
        g = two_way_line()
        t = build_forest(g, ["v2"])
        assert tuple(e.name for e in t.tree_edges) == ("alpha", "delta")
        c = t_corner(g, t)
        assert c.vertices == ("v1", "v3")
        assert sorted(e.name for e in c.edges) == ["beta_v1", "beta_v3", "gamma_v1", "gamma_v3"]

        g2 = loops_and_chords()
        c2 = t_corner(g2, build_forest(g2, ["2"]))
        assert c2.vertices == ("2", "4")
        assert sorted(e.name for e in c2.edges) == ["delta_4", "gamma_4"]
        assert classify(c2).sources == ("2",)


def test_criterion_04_infinite_unit_rank(capsys):
    with criterion(capsys, 4, "single arrow over an infinite unit group", 5.0):
        g = Graph(("1", "2"), (Edge("x", "1", "2"),))
        summary = k_summary(g, INF)
        assert summary.rank_k0 == 1
        assert summary.rank_k1 == INF
        assert not summary.no_sinks
        assert summary.criterion5 is None


def test_criterion_05_rank_identity_suite(capsys):
    with criterion(capsys, 5, "rank identity on 500 random graphs", 10.0):
        rng = random.Random(501)
        for _ in range(500):
            g = random_graph(rng, max_vertices=10, max_edges=20)
            singular = len(classify(g).sinks)
            for r in range(4):
                summary = k_summary(g, r)
                assert (r + 1) * summary.rank_k0 - summary.rank_k1 == singular


def test_criterion_06_move_invariance_suite(capsys):
    with criterion(capsys, 6, "K-data invariance of the graph moves", 30.0):
        rng = random.Random(601)
        for _ in range(200):
            g = random_graph(rng, max_vertices=8, max_edges=16, no_sinks=True)
            data = k0_data(g)

            desourced, trace = desourcify(g)
            shape = classify(desourced)
            assert shape.sinks == () and shape.sources == ()
            assert k0_data(desourced) == data
            assert replay(trace, g) == desourced

            v = rng.choice(g.vertices)
            n = rng.randint(1, 3)
            assert k0_data(attach_sources(g, v, n)) == k0_data(
                attach_head(g, v, n)
            )
            e = rng.choice(g.edges)
            assert k0_data(subdivide_edge(g, e.name, n)) == k0_data(
                attach_head(g, e.dst, n)
            )


def test_criterion_07_symbolic_verification_suite(capsys):
    with criterion(capsys, 7, "symbolic Cuntz-Krieger family checks", 5.0):
        g = funnel_into_cycle()
        hs = ["1", "2", "3"]
        report = verify_ck_family(expand_hereditary(g, hs), expansion_family(g, hs), g)
        assert report.ok, report.failures

        tri = triangle()
        report = verify_ck_family(
            attach_head(tri, "u", 3),
            subdivision_family(tri, "alpha", 3),
            subdivide_edge(tri, "alpha", 3),
        )
        assert report.ok, report.failures

        for host, roots in ((two_way_line(), ["v2"]), (loops_and_chords(), ["2"])):
            t = build_forest(host, roots)
            fam = corner_family(host, t)
            report = verify_ck_family(t_corner(host, t), fam, host)
            assert report.ok, report.failures
            weights = corner_weights(host, t)
            for image in fam.vertex_images.values():
                assert degree(host, image, weights) == 0
            for image in fam.edge_images.values():
                assert degree(host, image, weights) == 1

        t = build_forest(two_way_line(), ["v2"])
        fam = corner_family(two_way_line(), t)
        mutated = dict(fam.edge_images)
        mutated["gamma_v1"], mutated["gamma_v3"] = mutated["gamma_v3"], mutated["gamma_v1"]
        report = verify_ck_family(
            t_corner(two_way_line(), t),
            CkFamily(fam.vertex_images, mutated),
            two_way_line(),
        )
        assert not report.ok
        assert any(f.startswith(("CK-1:", "CK-2:", "E1:", "E2:")) for f in report.failures)


def test_criterion_08_snf_oracle_suite(capsys):
    with criterion(capsys, 8, "Smith normal form against the minor-gcd oracle", 5.0):
        rng = random.Random(801)
        for _ in range(200):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            entries = tuple(
                tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows)
            )
            factors = smith_normal_form(IntMatrix(entries))
            assert factors == oracle_invariant_factors(entries)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0


def test_criterion_09_monoid_suite(capsys):
    with criterion(capsys, 9, "graph monoid search and rebalancing", 5.0):
        out = equivalent(
            rose2(), MonoidElement.of({"v": 1}), MonoidElement.of({"v": 2}), 8, 64
        )
        assert out == Decision(True, "steps 1")
        out = equivalent(
            single_loop(), MonoidElement.of({"v": 1}), MonoidElement.of({"v": 2}), 8, 64
        )
        assert out == Decision(None, "exhausted true")

        rng = random.Random(901)
        done = 0
        while done < 10:
            base = random_graph(rng, max_vertices=5, max_edges=8, no_sinks=True)
            looped = [e for v in base.vertices for e in (Edge(f"self_{v}", v, v),)
                      if not any(x.src == v and x.dst == v for x in base.edges)]
            g = Graph(base.vertices, base.edges + tuple(looped))
            starts = [v for v in g.vertices if set(hs_closure(g, [v])) == set(g.vertices)]
            m = (MonoidElement.of({starts[0]: 1}) if starts
                 else MonoidElement.of({v: 1 for v in g.vertices}))
            assert is_full(g, m)
            balanced = rebalance_full(g, m)
            assert all(balanced.get(v) >= 1 for v in g.vertices)
            assert equivalent(g, m, balanced, 40, 10_000).answer is True
            done += 1


def test_criterion_10_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 10, "byte-identical CLI runs and trace replay", 5.0):
        g = funnel_into_cycle()
        sourced = attach_head(g, "5", 1)
        graph_file = tmp_path / "graph.txt"
        graph_file.write_text(serialize_graph(g), encoding="utf-8")
        sourced_file = tmp_path / "sourced.txt"
        sourced_file.write_text(serialize_graph(sourced), encoding="utf-8")
        family_file = tmp_path / "family.txt"
        assert run(["corner", str(graph_file), "--roots", "4",
                    "--emit-family", "--output", str(family_file)]) == 0
        capsys.readouterr()

        commands = [
            ["analyze", str(graph_file)],
            ["analyze", str(graph_file), "--unit-rank", "inf"],
            ["move", "expand-hereditary", str(graph_file), "1,2,3"],
            ["move", "attach-head", str(graph_file), "4", "2"],
            ["move", "subdivide", str(graph_file), "a", "2"],
            ["move", "attach-sources", str(graph_file), "4", "2"],
            ["desourcify", str(sourced_file)],
            ["corner", str(graph_file), "--roots", "4"],
            ["corner", str(graph_file), "--roots", "4", "--emit-family"],
            ["corner", str(graph_file), "--roots", "4", "--emit-weights"],
            ["verify", str(graph_file), str(family_file)],
            ["monoid", "equiv", str(graph_file), "4:1", "1:1", "--steps", "4"],
            ["monoid", "full", str(graph_file), "4:1"],
            ["monoid", "rebalance", str(graph_file), "4:1"],
        ]
        for argv in commands:
            first_code = run(argv)
            first = capsys.readouterr()
            second_code = run(argv)
            second = capsys.readouterr()
            assert first_code == second_code, argv
            assert (first.out, first.err) == (second.out, second.err), argv

        desourced, trace = desourcify(sourced)
        parsed = parse_trace(serialize_trace(trace))
        assert parsed == trace
        assert replay(parsed, sourced) == desourced
        assert parsed.records[-1].output_hash == graph_hash(desourced)


def test_library_has_no_assert_statements():
    # python -O strips assert: invariants are explicit checks, cross-checks are tests
    found = []
    for path in sorted(Path(leavitt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_every_public_name_resolves_once():
    # the benchmark's span tracer runs getattr on every __all__ entry
    for path in sorted(Path(leavitt.__file__).parent.glob("*.py")):
        if path.stem == "__main__":
            continue
        name = "leavitt" if path.stem == "__init__" else f"leavitt.{path.stem}"
        module = importlib.import_module(name)
        public = module.__all__
        assert len(set(public)) == len(public), name
        assert [attr for attr in public if not hasattr(module, attr)] == [], name


def test_every_private_module_name_is_used():
    # a private helper left behind when its last caller is deleted
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(Path(leavitt.__file__).parent.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{name}:{d}" for d in defined
                       if d.startswith("_") and not d.startswith("__") and d not in used]
    assert unused == []
