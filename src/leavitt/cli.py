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

One table, ``_TABLE``, names each command path once with its help, its
handler and its arguments; the parser is built from it.  Every leaf's first
argument is ``graph``.  :func:`run` parses the graph, calls
``handler(graph, args)`` for the leaf's pieces of text and exit code, writes
the pieces one at a time to ``--output`` where the leaf has that option and
to stdout otherwise, and turns a ``ValueError`` or ``OSError`` from any step,
the handler's included, into the diagnostic.  A report is one piece.  A graph
is its text in pieces of at most 512 lines, each formatted only when it is
written, after the handler's fallible work is done, so no whole copy of a
large graph's text is held.  Two handlers touch files of their own:
``verify`` reads its family file and ``desourcify`` writes its ``--trace``.
Each handler imports the modules it runs, so a process pays at start-up only
for its own command.

:func:`main`, behind the ``leavitt`` script and ``python -m leavitt``, flushes
stdout and stderr after :func:`run` and ends the process with ``os._exit``,
skipping interpreter finalization, which changes no output.  It exits through
``SystemExit`` instead when a flush fails or a trace, profile or
``sys.monitoring`` hook is set, so a closed pipe reports as the interpreter
reports it and profilers and coverage get their reports; exit-time reports
such as ``-X showrefcount`` and ``atexit`` callbacks are otherwise skipped.
Embedders call :func:`run`, which returns the exit code.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Iterable

from .graph import _decimal, _digits, _serialized, parse_graph

__all__ = ["run", "main"]

_ANSWER = {True: "true", None: "unknown"}  # a Decision's answer as a report word


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(pieces: Iterable[str], output: str | None) -> None:
    if output is None:
        if sys.stdout is None:  # its descriptor was closed when the process started
            raise OSError("stdout is closed")
        sys.stdout.writelines(pieces)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


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
    return "inf" if value == float("inf") else _digits(value)


def _vertex_list(text: str) -> list[str]:
    return text.split(",")


def _cmd_analyze(g, args) -> tuple[Iterable[str], int]:
    from .ktheory import k_summary

    r = args.unit_rank
    summary = k_summary(g, r)
    no_sinks = str(summary.no_sinks).lower()
    torsion = ",".join(map(_digits, summary.torsion)) or "none"
    criterion5 = ("inapplicable: infinite unit-group rank" if summary.criterion5 is None
                  else str(summary.criterion5).lower())
    return (f"rank_k0 {summary.rank_k0}\n"
            f"rank_k1(r={_rank_text(r)}) {_rank_text(summary.rank_k1)}\n"
            f"torsion {torsion}\n"
            f"singular {summary.singular_count}\n"
            f"is_ck {no_sinks}\n"
            f"strongly_graded {no_sinks}\n"
            f"criterion4 {str(summary.criterion4).lower()}\n"
            f"criterion5 {criterion5}\n",), 0


def _cmd_move(fn: str, params: list[str], g, args) -> tuple[Iterable[str], int]:
    # looked up by name when the command runs: this keeps moves out of other commands'
    # imports, and the span wrappers, which replace module attributes, see every move
    from . import moves

    return _serialized(getattr(moves, fn)(g, *(getattr(args, dest) for dest in params))), 0


def _cmd_desourcify(g, args) -> tuple[Iterable[str], int]:
    from .moves import desourcify, serialize_trace

    out, trace = desourcify(g)
    if args.trace is not None:
        _emit((serialize_trace(trace),), args.trace)
    return _serialized(out), 0


def _cmd_corner(g, args) -> tuple[Iterable[str], int]:
    from .corners import build_forest, corner_family, corner_weights, t_corner

    t = build_forest(g, args.roots)
    if args.emit_family:
        from .algebra import format_family

        return (format_family(t_corner(g, t), corner_family(g, t)),), 0
    if args.emit_weights:
        weights = corner_weights(g, t)
        return ("".join(f"{e.name} {weights[e.name]}\n" for e in g.edges),), 0
    return _serialized(t_corner(g, t)), 0


def _cmd_verify(host, args) -> tuple[Iterable[str], int]:
    from .algebra import parse_family, verify_ck_family

    report = verify_ck_family(*parse_family(_read_text(args.family), host), host)
    text = f"ok {str(report.ok).lower()}\n" + "".join(f"fail {f}\n" for f in report.failures)
    return (text,), 0 if report.ok else 1


def _cmd_equiv(g, args) -> tuple[Iterable[str], int]:
    from .monoid import equivalent, parse_monoid

    answer, reason = equivalent(g, parse_monoid(g, args.a), parse_monoid(g, args.b), args.steps, args.size)
    return (f"equivalent {_ANSWER[answer]}\n{reason}\n",), 0


def _cmd_full(g, args) -> tuple[Iterable[str], int]:
    from .monoid import is_full, parse_monoid

    return (f"full {str(is_full(g, parse_monoid(g, args.element))).lower()}\n",), 0


def _cmd_rebalance(g, args) -> tuple[Iterable[str], int]:
    from .monoid import format_monoid, parse_monoid, rebalance_full

    return (f"result {format_monoid(rebalance_full(g, parse_monoid(g, args.element)))}\n",), 0


_GRAPH, _ELEMENT, _OUTPUT = ("graph", {}), ("element", {}), ("--output", {})
_VERTEX, _N = ("vertex", {}), ("n", {"type": _positive_int})


def _move(help: str, fn: str, *params) -> tuple:
    """The row of a move that prints ``leavitt.moves.<fn>(graph, *params)``."""
    handler = functools.partial(_cmd_move, fn, [dest for dest, _ in params])
    return help, handler, [_GRAPH, *params, _OUTPUT]


# Every command path in help order, each after its parent: its help (for the
# root, the description), its handler (None where leaves follow) and its
# arguments as (name, add_argument keywords); a list of them is a mutually
# exclusive group.
_TABLE = {
    (): ("Graph moves, corners, K-theory and monoid tools for Leavitt path algebras.", None, []),
    ("analyze",): ("K-theory ranks and classification verdicts", _cmd_analyze, [
        _GRAPH, ("--unit-rank", {"type": _unit_rank, "default": 0,
                                 "help": "rank of the coefficient field's unit group "
                                         "(nonnegative integer or 'inf'; default 0)"})]),
    ("move",): ("apply one graph move that keeps the algebra up to Morita equivalence", None, []),
    ("move", "expand-hereditary"): _move(
        "replace the complement of a hereditary set by path vertices", "expand_hereditary",
        ("vertices", {"type": _vertex_list, "help": "comma-separated hereditary vertex set"})),
    ("move", "attach-head"): _move("attach a head of length n", "attach_head", _VERTEX, _N),
    ("move", "subdivide"): _move("subdivide an edge into n+1 pieces", "subdivide_edge",
                                 ("edge", {}), _N),
    ("move", "attach-sources"): _move("attach n new sources aimed at a vertex",
                                      "attach_sources", _VERTEX, _N),
    ("move", "eliminate-source"): _move("remove a source and its edges", "eliminate_source",
                                        _VERTEX),
    ("move", "matrix"): _move("the n x n matrix form: a head of length n-1 at every vertex",
                              "matrix_graph", _N),
    ("desourcify",): (
        "eliminate all sources, then repair the head degrees by subdivision", _cmd_desourcify,
        [_GRAPH, ("--trace", {"help": "write the move trace to this file"}), _OUTPUT]),
    ("corner",): ("corner graph cut out by a directed forest", _cmd_corner, [
        _GRAPH, ("--roots", {"type": _vertex_list, "required": True,
                             "help": "comma-separated root vertices"}),
        [("--emit-family", {"action": "store_true",
                            "help": "print the corner generators' images instead"}),
         ("--emit-weights", {"action": "store_true",
                             "help": "print the grading weights instead"})],
        _OUTPUT]),
    ("verify",): ("check a generator family against the defining relations", _cmd_verify, [
        ("graph", {"help": "host graph the images live in"}),
        ("family", {"help": "family file (vertex/edge lines with elements)"})]),
    ("monoid",): ("graph monoid computations", None, []),
    ("monoid", "equiv"): ("bounded search for a relation chain", _cmd_equiv, [
        _GRAPH, ("a", {}), ("b", {}),
        ("--steps", {"type": _positive_int, "default": 8, "help": "total step bound (default 8)"}),
        ("--size", {"type": _positive_int, "default": 64,
                    "help": "total multiplicity bound (default 64)"})]),
    ("monoid", "full"): ("is the element's closure everything?", _cmd_full, [_GRAPH, _ELEMENT]),
    ("monoid", "rebalance"): ("expand a full element until every vertex is covered",
                              _cmd_rebalance, [_GRAPH, _ELEMENT]),
}


def _command_path(argv: list[str]) -> tuple[str, ...]:
    """The command, with its leaf if it has leaves, that ``argv`` starts
    with; ``()`` when its first tokens name none."""
    for n in (2, 1):
        row = _TABLE.get(tuple(argv[:n]))
        if row is not None and row[1] is not None:
            return tuple(argv[:n])
    return ()


@functools.lru_cache(maxsize=None)
def _build_parser(path: tuple[str, ...] = ()) -> argparse.ArgumentParser:
    """The command-line parser, built once per process and path: parsing
    keeps no state in it between calls.  ``()`` builds the whole tree; a
    path from ``_command_path`` builds only the parsers along it, whose
    usage lines still list every choice, so an argv that starts with the
    path parses, fails and prints as it would on the whole tree."""
    subparsers: dict[tuple[str, ...], argparse._SubParsersAction] = {}
    for key, (help, handler, params) in _TABLE.items():
        if key[:len(path)] != path[:len(key)]:  # neither on the path nor below it
            continue
        if key:
            p = subparsers[key[:-1]].add_parser(key[-1], help=help)
        else:
            top = p = argparse.ArgumentParser(prog="leavitt", description=help)
        if handler is None:
            leaves = [k[-1] for k in _TABLE if k and k[:-1] == key]
            subparsers[key] = p.add_subparsers(
                dest=key[-1] if key else "command", required=True,
                metavar="{" + ",".join(leaves) + "}" if path else None)
        else:
            p.set_defaults(run=handler)
        for spec in params:
            if isinstance(spec, list):
                group = p.add_mutually_exclusive_group()
                for name, kwargs in spec:
                    group.add_argument(name, **kwargs)
            else:
                p.add_argument(spec[0], **spec[1])
    return top


def run(argv: list[str]) -> int:
    """Run one command; returns the process exit code instead of exiting."""
    try:
        args = _build_parser(_command_path(argv)).parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    try:
        pieces, code = args.run(parse_graph(_read_text(args.graph)), args)
        _emit(pieces, getattr(args, "output", None))
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return code


def _watched() -> bool:
    """Whether a trace, profile or monitoring hook is set: coverage, pdb,
    ``trace`` and cProfile do their last work once ``SystemExit`` reaches
    them or the interpreter shuts down."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    # tool ids run from 0 to 5
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


def main() -> None:
    """Run the command in ``sys.argv`` and end the process with its exit
    code, skipping interpreter finalization unless a hook is watching or a
    flush fails."""
    code = run(sys.argv[1:])
    if not _watched():
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # None when its descriptor was closed at start-up
                    stream.flush()
        except OSError:
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    main()
