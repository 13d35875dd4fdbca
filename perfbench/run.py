"""Seeded, outside-in benchmark of the ``leavitt`` command.

One client runs a closed loop: each op is one ``leavitt`` command line, issued
only after the previous one finished.  A pass runs a workload's fixed op list
once; the timed loop repeats passes for ``--seconds`` seconds, at least
``MIN_PASSES`` times.  ``library`` calls ``leavitt.cli.run(argv)`` in this
process with stdout captured; ``cli-mix`` starts a fresh ``python -m leavitt``
process per op.  Every time metric is built from each op's median over the
passes, so one pass slowed by the machine does not move it, and is scaled to
a reference machine speed by a probe timed after every op (``speed_probe``).
After the loop every op's output is checked (see ``checks.py``).

    python3 perfbench/run.py --workload library --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the run alternates untraced and traced
passes (``spans.py``), writes the span file and reports the per-layer metrics
instead.  Lines before it are a human-readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 7
MIN_PASSES = 3
# The shared machine's speed drifts by tens of percent from one minute to the
# next, and every op, spawned or in-process, follows it.  ``speed_probe`` times
# a fixed piece of interpreter work after every op; each time metric is scaled
# by PROBE_REF_S over the run's median probe, so it reads as at one reference
# speed rather than the speed of the minute the run fell in (README, "Machine
# speed").  PROBE_REF_S is the probe's typical time on the machine the
# baseline was measured on.
PROBE_REF_S = 0.006

# name -> unit; every end-to-end metric is lower-is-better except ok_ratio
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def file_text(work: Path, rel: str | None) -> str | None:
    if rel is None:
        return None
    path = work / rel
    return path.read_text(encoding="utf-8") if path.is_file() else None


class InProcess:
    """Runs an op as ``leavitt.cli.run(argv)`` in this process."""

    def __init__(self):
        import leavitt.cli

        self.cli = leavitt.cli

    def __call__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # each op starts from a collected heap, as a fresh process does
        cpu0, start = time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.run(argv)  # looked up per call, so the tracer sees it
        return (code, out.getvalue(), err.getvalue(), time.perf_counter() - start,
                time.process_time() - cpu0)

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Spawned:
    """Runs an op as a fresh ``python -m leavitt`` process and reaps it with
    ``wait4``, which reports that one child's CPU time and peak RSS."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        src = str(workloads.ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.err_path = work / "out" / "stderr.txt"
        self.max_rss_kb = 0

    def __call__(self, argv):
        start = time.perf_counter()
        with open(self.err_path, "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "leavitt", *argv], cwd=self.work,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8")
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return (proc.returncode, out.decode("utf-8"), stderr, elapsed,
                usage.ru_utime + usage.ru_stime)

    def peak_rss_kb(self):
        return self.max_rss_kb


def speed_probe() -> float:
    """Seconds a fixed mix of small-integer, string-keyed dict and big-integer
    work takes right now; the program's own code is not involved."""
    start = time.perf_counter()
    total = 0
    for i in range(40000):
        total += i * i % 7
    table = {}
    for i in range(3000):
        table[f"v{i}"] = (i, str(i))
    big = 7 ** 1500
    for _ in range(30):
        big = big * 3 % (10 ** 400 + 7)
    return time.perf_counter() - start


def run_pass(ops, runner, work: Path, tracer=None, keep_dir: Path | None = None):
    """One pass over the op list: per-op code, latency, CPU time, digest and
    the speed probe taken right after the op.  With ``keep_dir`` each op's
    stdout, stderr and trace also go to files there, so the checks can read
    them without the harness holding them in memory."""
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        code, stdout, stderr, latency, cpu = runner(op["argv"])
        out_text = file_text(work, op["out"])
        results.append({"code": code, "latency": latency, "cpu": cpu,
                        "digest": checks.digest(code, stdout, stderr, out_text),
                        "probe": speed_probe()})
        if keep_dir is not None:
            for suffix, text in (("stdout", stdout), ("stderr", stderr),
                                 ("trace", file_text(work, op["trace"]) or "")):
                (keep_dir / f"{op['id']}.{suffix}").write_bytes(text.encode("utf-8"))
    return results


def kept(keep_dir: Path, op_id: str, suffix: str) -> str:
    return (keep_dir / f"{op_id}.{suffix}").read_bytes().decode("utf-8")


def measure_pass(ops, runner, work: Path, tracer=None, keep_dir: Path | None = None):
    wall0 = time.perf_counter()
    if tracer is None:
        results = run_pass(ops, runner, work, keep_dir=keep_dir)
    else:
        with tracer:
            results = run_pass(ops, runner, work, tracer)
    return {"wall": time.perf_counter() - wall0, "results": results}


def timed_loop(ops, runner, work: Path, seconds: float, keep_dir: Path, tracer=None):
    """Repeat passes while another median-length round still fits in
    ``seconds``, and at least ``MIN_PASSES`` times untraced.  The first pass
    keeps its outputs in ``keep_dir`` for the checks.  With a tracer each round
    is an untraced pass followed by a traced one, so drift in machine speed
    hits both sides alike; one round is enough there, since per-layer metrics
    have no bound to meet."""
    passes, traced = [], []
    begin = time.perf_counter()
    while True:
        passes.append(measure_pass(ops, runner, work, keep_dir=None if passes else keep_dir))
        if tracer is not None:
            traced.append(measure_pass(ops, runner, work, tracer))
        rounds = [p["wall"] + (t["wall"] if traced else 0)
                  for p, t in zip(passes, traced or passes)]
        if len(passes) >= (MIN_PASSES if tracer is None else 1) and \
                time.perf_counter() - begin + statistics.median(rounds) > seconds:
            return passes, traced


def set_up(workload: str, seed: int, scale: int, work: Path) -> float:
    """Generate the inputs into ``work`` SETUP_REPEATS times, each in a fresh
    process that times itself from ``import leavitt`` to the last file written
    (interpreter start-up is ``cli.spawn_ms``'s business).  Returns their
    median at the reference speed, from speed probes taken between them."""
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                               "--seed", str(seed), "--out", str(work), "--scale", str(scale)],
                              check=True, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              text=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        probes += [speed_probe() for _ in range(3)]
    return statistics.median(times) * PROBE_REF_S / statistics.median(probes)


def check_run(ops, passes, work: Path, keep_dir: Path, golden):
    """Failure reasons per op index: the first pass's outputs are checked,
    and every other pass must reproduce them byte for byte."""
    failed: dict[int, str] = {}
    for i, (op, res) in enumerate(zip(ops, passes[0]["results"])):
        reason = checks.check_op(op, res["code"], *(kept(keep_dir, op["id"], suffix)
                                                     for suffix in ("stdout", "stderr", "trace")),
                                 work)
        if reason is None and golden is not None and golden.get(op["id"]) != res["digest"]:
            reason = "output differs from the golden digest"
        if reason is None and any(p["results"][i]["digest"] != res["digest"] for p in passes):
            reason = "output differs between passes"
        if reason is not None:
            failed[i] = reason
    return failed


def op_medians(passes, key):
    """Each op's median ``key`` over the passes, in op-list order."""
    return [statistics.median(r[key] for r in rs)
            for rs in zip(*(p["results"] for p in passes))]


def op_time(one_pass) -> float:
    """Seconds a pass spent inside its ops, without the harness between them."""
    return sum(r["latency"] for r in one_pass["results"])


def probe_median(passes) -> float:
    return statistics.median(r["probe"] for p in passes for r in p["results"])


def end_to_end(passes, peak_rss_kb, setup_s, attempted, failed):
    """The end-to-end metrics, every time at the reference speed."""
    speed = PROBE_REF_S / probe_median(passes)
    latencies = [t * speed for t in op_medians(passes, "latency")]
    return {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "cpu_s": sum(op_medians(passes, "cpu")) * speed,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": peak_rss_kb / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }


def spawn_probes(repeats=7):
    """Median ms of ``python -c pass`` and, above it, of importing leavitt.cli."""
    env = dict(os.environ, PYTHONPATH=str(workloads.ROOT / "src"))

    def median_ms(code):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, env=env,
                           stdin=subprocess.DEVNULL)
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    spawn = median_ms("pass")
    return {"cli.spawn_ms": (spawn, "ms"),
            "cli.import_ms": (median_ms("import leavitt.cli") - spawn, "ms")}


def record_golden(workload: str, ops, first, work: Path, keep_dir: Path) -> None:
    """Write the default seed's digests, after cross-checking K-theory torsion
    against sympy's invariant factors."""
    bad = checks.sympy_torsion_mismatches(ops, [kept(keep_dir, op["id"], "stdout") for op in ops],
                                          work)
    if bad:
        sys.exit("sympy disagrees: " + "; ".join(bad))
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    payload = {"seed": checks.DEFAULT_SEED,
               "digests": {op["id"]: r["digest"] for op, r in zip(ops, first)}}
    checks.golden_path(workload).write_text(json.dumps(payload, indent=1) + "\n",
                                            encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=int, default=1,
                    help="shrink every input by this factor (smoke test)")
    ap.add_argument("--out", default=str(OUT_DIR), help="directory for work files")
    ap.add_argument("--record-golden", action="store_true",
                    help="write golden/<workload>.json from one pass (default seed only)")
    args = ap.parse_args(argv)
    if args.record_golden and (args.seed != checks.DEFAULT_SEED or args.scale != 1):
        ap.error("--record-golden needs the default seed and scale 1")

    workloads.import_leavitt()
    run_dir = Path(args.out).resolve() / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work, keep_dir = run_dir / "work", run_dir / "first"
    setup_s = set_up(args.workload, args.seed, args.scale, work)
    keep_dir.mkdir()
    ops = json.loads((work / "ops.json").read_text(encoding="utf-8"))
    os.chdir(work)
    golden = checks.load_golden(args.workload, args.seed, args.scale)

    if args.record_golden:
        first = run_pass(ops, InProcess(), work, keep_dir=keep_dir)
        record_golden(args.workload, ops, first, work, keep_dir)
        print(f"wrote {checks.golden_path(args.workload)}")
        return 0

    spawned = args.workload == "cli-mix" and args.trace == 0
    runner = Spawned(work) if spawned else InProcess()
    tracer = spans.Tracer() if args.trace else None
    passes, traced = timed_loop(ops, runner, work, args.seconds, keep_dir, tracer)
    peak_rss_kb = runner.peak_rss_kb()  # before the checks allocate anything

    failed = check_run(ops, passes + traced, work, keep_dir, golden)
    attempted = len(ops) * len(passes)
    failed_ops = len(failed) * len(passes)
    for i, reason in sorted(failed.items()):
        print(f"FAIL {ops[i]['id']} {' '.join(ops[i]['argv'])}: {reason}", file=sys.stderr)

    if args.trace == 0:
        values = end_to_end(passes, peak_rss_kb, setup_s, attempted, failed_ops)
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    else:
        # measured outside the spans: start-up probes, and each part's untraced time
        untraced = op_medians(passes, "latency")
        outside = spawn_probes()
        outside["machine.probe_ms"] = (probe_median(passes) * 1e3, "ms")
        for part in workloads.PARTS:
            outside[f"part.{part}_s"] = (sum(t for op, t in zip(ops, untraced)
                                             if op["part"] == part), "s")
        facts = {"workload": args.workload, "seed": args.seed, "passes": len(traced),
                 "analyze_ops": sum(op["argv"][0] == "analyze" for op in ops),
                 "traced_wall_s": statistics.fmean(op_time(p) for p in traced),
                 "untraced_wall_s": statistics.fmean(op_time(p) for p in passes),
                 "outside": outside}
        metrics = spans.summarize(dict(facts, names=tracer.names, spans=tracer.spans,
                                       counts=tracer.counts, maxes=tracer.maxes))
        metrics.update(outside)
        tracer.dump(run_dir / "spans.json.gz", facts)
        print(f"spans written to {run_dir / 'spans.json.gz'}")

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass "
          f"(p50 and p90 over their {len(ops)} per-op medians, "
          f"{len(ops) - int(0.9 * (len(ops) - 1)) - 1} ops above p90), "
          f"{len(passes)} passes, {len(failed)} failing ops; pass walls "
          + " ".join(f"{p['wall']:.3f}" for p in passes)
          + f"; median speed probe {probe_median(passes) * 1e3:.3f} ms against "
          f"{PROBE_REF_S * 1e3:g} ms at the reference speed")
    print(spans.format_table(metrics))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
