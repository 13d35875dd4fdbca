"""Command-line front end.

Subcommands::

    analyze <graph> [--unit-rank r]
    move expand-hereditary <graph> <v1,v2,...> [--output PATH]
    move attach-head <graph> <vertex> <n> [--output PATH]
    move subdivide <graph> <edge> <n> [--output PATH]
    move attach-sources <graph> <vertex> <n> [--output PATH]
    move eliminate-source <graph> <vertex> [--output PATH]
    move matrix <graph> <n> [--output PATH]
    desourcify <graph> [--trace PATH] [--output PATH]
    corner <graph> --roots v1,v2 [--emit-family | --emit-weights] [--output PATH]
    verify <graph> <family-file>
    monoid equiv <graph> <a> <b> [--steps N] [--size N]
    monoid full <graph> <element>
    monoid rebalance <graph> <element>

Graphs are read from files in the line-oriented text format of
:mod:`leavitt.graph`; graph-producing commands write the same format to
stdout or ``--output``.  Reports are ``key value`` lines.  Exit codes: 0 on
success, 1 on a domain error (one-line diagnostic on stderr) or a failed
verification, 2 on usage errors.

Each handler imports the modules it runs, so a process pays at start-up
only for its own command.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .graph import Graph, _decimal, parse_graph, serialize_graph

__all__ = ["run", "main"]


def _read_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _unit_rank(text: str):
    if text == "inf":
        return float("inf")
    try:
        r = _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "unit rank must be a nonnegative integer or 'inf'"
        ) from None
    if r < 0:
        raise argparse.ArgumentTypeError("unit rank must be nonnegative")
    return r


def _positive_int(text: str) -> int:
    try:
        n = _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a positive integer") from None
    if n < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return n


def _rank_text(value) -> str:
    return "inf" if value == float("inf") else str(value)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it between calls."""
    top = argparse.ArgumentParser(
        prog="leavitt",
        description="Graph moves, corners, K-theory and monoid tools "
        "for Leavitt path algebras.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="K-theory ranks and classification verdicts")
    p.add_argument("graph")
    p.add_argument("--unit-rank", type=_unit_rank, default=0,
                   help="rank of the coefficient field's unit group "
                        "(nonnegative integer or 'inf'; default 0)")

    p = sub.add_parser("move", help="apply one isomorphism-preserving graph move")
    movesub = p.add_subparsers(dest="move", required=True)

    m = movesub.add_parser("expand-hereditary", help="replace the complement of a "
                           "hereditary set by path vertices")
    m.add_argument("graph")
    m.add_argument("vertices", help="comma-separated hereditary vertex set")
    m.add_argument("--output")

    m = movesub.add_parser("attach-head", help="attach a head of length n")
    m.add_argument("graph")
    m.add_argument("vertex")
    m.add_argument("n", type=_positive_int)
    m.add_argument("--output")

    m = movesub.add_parser("subdivide", help="subdivide an edge into n+1 pieces")
    m.add_argument("graph")
    m.add_argument("edge")
    m.add_argument("n", type=_positive_int)
    m.add_argument("--output")

    m = movesub.add_parser("attach-sources", help="attach n new sources aimed at "
                           "a vertex")
    m.add_argument("graph")
    m.add_argument("vertex")
    m.add_argument("n", type=_positive_int)
    m.add_argument("--output")

    m = movesub.add_parser("eliminate-source", help="remove a source and its edges")
    m.add_argument("graph")
    m.add_argument("vertex")
    m.add_argument("--output")

    m = movesub.add_parser("matrix", help="the n x n matrix form: a head of "
                           "length n-1 at every vertex")
    m.add_argument("graph")
    m.add_argument("n", type=_positive_int)
    m.add_argument("--output")

    p = sub.add_parser("desourcify", help="eliminate all sources, then repair the "
                       "head degrees by subdivision")
    p.add_argument("graph")
    p.add_argument("--trace", help="write the move trace to this file")
    p.add_argument("--output")

    p = sub.add_parser("corner", help="corner graph cut out by a directed forest")
    p.add_argument("graph")
    p.add_argument("--roots", required=True, help="comma-separated root vertices")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--emit-family", action="store_true",
                       help="print the corner generators' images instead")
    group.add_argument("--emit-weights", action="store_true",
                       help="print the grading weights instead")
    p.add_argument("--output")

    p = sub.add_parser("verify", help="check a generator family against the "
                       "defining relations")
    p.add_argument("graph", help="host graph the images live in")
    p.add_argument("family", help="family file (vertex/edge lines with elements)")

    p = sub.add_parser("monoid", help="graph monoid computations")
    monsub = p.add_subparsers(dest="monoid", required=True)

    m = monsub.add_parser("equiv", help="bounded search for a relation chain")
    m.add_argument("graph")
    m.add_argument("a")
    m.add_argument("b")
    m.add_argument("--steps", type=_positive_int, default=8,
                   help="total step bound (default 8)")
    m.add_argument("--size", type=_positive_int, default=64,
                   help="total multiplicity bound (default 64)")

    m = monsub.add_parser("full", help="is the element's closure everything?")
    m.add_argument("graph")
    m.add_argument("element")

    m = monsub.add_parser("rebalance", help="expand a full element until every "
                          "vertex is covered")
    m.add_argument("graph")
    m.add_argument("element")

    return top


def _cmd_analyze(args) -> int:
    from .ktheory import classify_algebra, k_summary

    g = _read_graph(args.graph)
    r = args.unit_rank
    summary = k_summary(g, r)
    verdict = classify_algebra(summary)
    no_sinks = str(verdict.no_sinks).lower()
    lines = [
        f"rank_k0 {summary.rank_k0}",
        f"rank_k1(r={_rank_text(r)}) {_rank_text(summary.rank_k1)}",
        "torsion " + (",".join(str(d) for d in summary.torsion) or "none"),
        f"singular {summary.singular_count}",
        f"is_ck {no_sinks}",
        f"strongly_graded {no_sinks}",
        f"criterion4 {str(verdict.criterion4).lower()}",
        "criterion5 "
        + ("inapplicable: infinite unit-group rank" if verdict.criterion5 is None
           else str(verdict.criterion5).lower()),
    ]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


def _cmd_move(args) -> int:
    from .moves import (attach_head, attach_sources, eliminate_source,
                        expand_hereditary, matrix_graph, subdivide_edge)

    g = _read_graph(args.graph)
    if args.move == "expand-hereditary":
        out = expand_hereditary(g, args.vertices.split(","))
    elif args.move == "attach-head":
        out = attach_head(g, args.vertex, args.n)
    elif args.move == "subdivide":
        out = subdivide_edge(g, args.edge, args.n)
    elif args.move == "attach-sources":
        out = attach_sources(g, args.vertex, args.n)
    elif args.move == "matrix":
        out = matrix_graph(g, args.n)
    else:
        out = eliminate_source(g, args.vertex)
    _emit(serialize_graph(out), args.output)
    return 0


def _cmd_desourcify(args) -> int:
    from .moves import desourcify, serialize_trace

    g = _read_graph(args.graph)
    out, trace = desourcify(g)
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(serialize_trace(trace))
    _emit(serialize_graph(out), args.output)
    return 0


def _cmd_corner(args) -> int:
    from .corners import build_forest, corner_family, corner_weights, t_corner

    g = _read_graph(args.graph)
    t = build_forest(g, args.roots.split(","))
    if args.emit_family:
        from .algebra import format_family

        corner = t_corner(g, t)
        _emit(format_family(corner, corner_family(g, t)), args.output)
    elif args.emit_weights:
        weights = corner_weights(g, t)
        text = "".join(f"{e.name} {weights[e.name]}\n" for e in g.edges)
        _emit(text, args.output)
    else:
        _emit(serialize_graph(t_corner(g, t)), args.output)
    return 0


def _cmd_verify(args) -> int:
    from .algebra import parse_family, verify_ck_family

    host = _read_graph(args.graph)
    target, family = parse_family(_read_text(args.family), host)
    report = verify_ck_family(target, family, host)
    lines = [f"ok {str(report.ok).lower()}"]
    lines += [f"fail {f}" for f in report.failures]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0 if report.ok else 1


def _cmd_monoid(args) -> int:
    from .monoid import (Equivalent, equivalent, format_monoid, is_full, parse_monoid,
                         rebalance_full)

    g = _read_graph(args.graph)
    if args.monoid == "equiv":
        a = parse_monoid(g, args.a)
        b = parse_monoid(g, args.b)
        outcome = equivalent(g, a, b, args.steps, args.size)
        if isinstance(outcome, Equivalent):
            sys.stdout.write(f"equivalent true\nsteps {outcome.steps}\n")
        else:
            sys.stdout.write("equivalent unknown\n"
                             f"exhausted {str(outcome.exhausted).lower()}\n")
        return 0
    m = parse_monoid(g, args.element)
    if args.monoid == "full":
        sys.stdout.write(f"full {str(is_full(g, m)).lower()}\n")
        return 0
    out = rebalance_full(g, m)
    sys.stdout.write(f"result {format_monoid(out)}\n")
    return 0


_HANDLERS = {
    "analyze": _cmd_analyze,
    "move": _cmd_move,
    "desourcify": _cmd_desourcify,
    "corner": _cmd_corner,
    "verify": _cmd_verify,
    "monoid": _cmd_monoid,
}


def run(argv: list[str]) -> int:
    """Run one command; returns the process exit code instead of exiting."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
