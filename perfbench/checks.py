"""Output checks behind ``ok_ratio``, run after the timed loop.

Each op's result is checked three ways:

* its exit code is the one the op expects (0, or 1 for a family that must
  fail and for an ambiguous token);
* for the default seed, the sha256 of its output matches ``golden/<workload>.json``,
  recorded from the seed commit (move traces are left out of the digest);
* for any seed, a check that does not trust the code under test: K0 ranks from
  a fraction-free Bareiss rank computed here, desourcified graphs free of
  sources and sinks whose trace replays to the printed graph, entry-path counts
  of diamond ladders, edge counts of corners, the exact report of genuine and
  perturbed families, vertex counts of moves and the fixed answers of the
  pinned monoid searches.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 1


def digest(code: int, stdout: str, stderr: str, out_text: str | None) -> str:
    """sha256 over everything an op shows a user, move traces excepted."""
    h = hashlib.sha256()
    for part in (str(code), stdout, stderr, out_text or ""):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str, seed: int, scale: int) -> dict[str, str] | None:
    """Digests recorded for the default seed, or None when they do not apply."""
    path = golden_path(workload)
    if seed != DEFAULT_SEED or scale != 1 or not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["digests"]


# ── the benchmark's own reading of the graph format ─────────────────────────


def parse_graph_text(text: str):
    """(vertices, edges) of a graph file; raises ValueError when malformed."""
    vertices, edges = [], []
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "vertex" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 4:
            edges.append((parts[1], parts[2], parts[3]))
        else:
            raise ValueError(f"malformed line {raw!r}")
    known = set(vertices)
    if len(known) != len(vertices) or len({e[0] for e in edges}) != len(edges):
        raise ValueError("duplicate names")
    if any(s not in known or d not in known for _, s, d in edges):
        raise ValueError("edge endpoint is not a vertex")
    return vertices, edges


def fnv1a64_hex(data: bytes) -> str:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return format(h, "016x")


def bareiss_rank(rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free Gaussian elimination."""
    a = [list(r) for r in rows]
    if not a or not a[0]:
        return 0
    nrows, ncols = len(a), len(a[0])
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank][col]
        for i in range(rank + 1, nrows):
            f = a[i][col]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[rank])]
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def presentation_rows(vertices, edges) -> tuple[list[list[int]], int]:
    """I - A^t on the regular columns, and the number of sinks."""
    idx = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    adj = [[0] * n for _ in range(n)]
    for _, s, d in edges:
        adj[idx[s]][idx[d]] += 1
    regular = [j for j in range(n) if any(adj[j])]
    rows = [[(1 if i == j else 0) - adj[j][i] for j in regular] for i in range(n)]
    return rows, n - len(regular)


# ── per-op checks ────────────────────────────────────────────────────────────


def _check_analyze(check, stdout, work: Path) -> str | None:
    vertices, edges = parse_graph_text((work / check["graph"]).read_text(encoding="utf-8"))
    rows, sinks = presentation_rows(vertices, edges)
    rho = bareiss_rank(rows)
    n, n_reg = len(vertices), len(vertices) - sinks
    rank_k0 = n - rho
    r = check["unit_rank"]
    if r == "inf":
        rank_k1 = str(n_reg - rho) if rank_k0 == 0 else "inf"
    else:
        rank_k1 = str(n_reg - rho + int(r) * rank_k0)
    lines = stdout.splitlines()
    want = {0: f"rank_k0 {rank_k0}", 1: f"rank_k1(r={r}) {rank_k1}", 3: f"singular {sinks}",
            4: f"is_ck {'false' if sinks else 'true'}"}
    for i, line in want.items():
        if i >= len(lines) or lines[i] != line:
            return f"expected {line!r}"
    return None


def _check_desourcify(check, stdout, trace_text, work: Path) -> str | None:
    vertices, edges = parse_graph_text(stdout)
    if {d for _, _, d in edges} != set(vertices) or {s for _, s, _ in edges} != set(vertices):
        return "desourcified graph still has a source or a sink"
    source_text = (work / check["graph"]).read_text(encoding="utf-8")
    records = [line.split() for line in trace_text.splitlines() if line.strip()]
    if not records:
        return "empty trace"
    if records[0][-2] != fnv1a64_hex(source_text.encode()):
        return "trace does not start at the input graph"
    if records[-1][-1] != fnv1a64_hex(stdout.encode()):
        return "trace does not end at the printed graph"
    from leavitt.graph import parse_graph, serialize_graph
    from leavitt.moves import parse_trace, replay

    replayed = replay(parse_trace(trace_text), parse_graph(source_text))
    if serialize_graph(replayed) != stdout:
        return "trace replays to a different graph"
    return None


def check_op(op, code, stdout, stderr, trace_text, work: Path) -> str | None:
    """None when the op's result is right, else a one-line reason."""
    if code != op["expect_exit"]:
        return f"exit {code}, expected {op['expect_exit']}: {stderr.strip()[:200]}"
    check = op["check"]
    if check is None:
        return None
    kind = check["kind"]
    try:
        if kind == "analyze":
            return _check_analyze(check, stdout, work)
        if kind == "desourcify":
            return _check_desourcify(check, stdout, trace_text, work)
        if kind == "graph_out":
            vertices, edges = parse_graph_text(stdout)
            for what, got in (("vertices", len(vertices)), ("edges", len(edges))):
                want = check.get(what)
                if want is not None and got != want:
                    return f"{got} {what}, expected {want}"
            return None
        if kind == "verify_ok":
            return None if stdout == "ok true\n" else f"expected 'ok true', got {stdout[:200]!r}"
        if kind == "verify_fail":
            want = "ok false\n" + "".join(f"fail {f}\n" for f in check["fails"])
            return None if stdout == want else f"expected {want!r}, got {stdout[:200]!r}"
        if kind == "exact":
            return None if stdout == check["stdout"] else \
                f"expected {check['stdout']!r}, got {stdout[:200]!r}"
        if kind == "monoid_true":
            lines = stdout.splitlines()
            steps = int(lines[1].split()[1]) if len(lines) == 2 else -1
            ok = lines[:1] == ["equivalent true"] and 0 <= steps <= check["max_steps"]
            return None if ok else f"expected a chain of at most {check['max_steps']} steps"
        if kind == "error":
            ok = not stdout and check["contains"] in stderr and stderr.startswith("error: ")
            return None if ok else f"expected a one-line error naming {check['contains']!r}"
    except (ValueError, IndexError) as err:
        return f"unreadable output: {err}"
    raise ValueError(f"unknown check kind {kind!r}")


def sympy_torsion_mismatches(ops, stdouts, work: Path) -> list[str]:
    """Cross-check analyze torsion against sympy at n <= 40 (golden recording)."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    bad = []
    seen = set()
    for op, stdout in zip(ops, stdouts):
        check = op["check"]
        if not check or check["kind"] != "analyze" or check["graph"] in seen:
            continue
        seen.add(check["graph"])
        vertices, edges = parse_graph_text((work / check["graph"]).read_text(encoding="utf-8"))
        if len(vertices) > 40:
            continue
        rows, _ = presentation_rows(vertices, edges)
        if not rows[0]:
            continue
        factors = [abs(int(d)) for d in invariant_factors(Matrix(rows), domain=ZZ)]
        torsion = ",".join(str(d) for d in factors if d not in (0, 1)) or "none"
        if f"torsion {torsion}" not in stdout.splitlines():
            bad.append(f"{op['id']}: sympy torsion {torsion}")
    return bad
