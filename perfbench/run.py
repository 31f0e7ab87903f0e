"""Benchmark runner for resamplekit: one client, one process, closed loop.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

The workload's cases (``cases.py``) run round-robin: one untimed warm-up
pass over the cases, then whole cycles (``cases.cycle``) until
``--seconds`` have passed.  Every output is
checked; an operation whose check fails or that raises counts as failed and
the run goes on.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
repeats the untimed loop, then runs ``TRACED_CYCLES`` cycles under the
tracer (``tracer.py``) and reports per-layer figures per cycle.

Besides a readable report, the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The same
result, with the environment stamp and per-case records, is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

if __name__ == "__main__":
    # bytecode this run compiles is written inside the checkout, not next to
    # the interpreter's packages
    sys.pycache_prefix = str(OUT / "pycache")

import numpy as np  # noqa: E402

import cases  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

SETUP_RUNS = 5
TRACED_CYCLES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
# The set-up probes read and write compiled bytecode only in this cache
# inside the checkout.  An untimed warm-up probe fills it when it is not
# current, so every timed probe takes the same import path whatever the
# interpreter's own cache holds.
PYC_VARS = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
PYCACHE = OUT / "pycache"


def import_library():
    """Import resamplekit from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import resamplekit
    import resamplekit.cli  # noqa: F401
    where = Path(resamplekit.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"resamplekit imported from {where}, not {src}")
    return resamplekit


# -- set-up probes and environment stamp ---------------------------------

def probe_setup(workload: str, seed: int) -> dict:
    """Set-up time and first-pass time of one fresh process."""
    env = {k: v for k, v in os.environ.items() if k not in PYC_VARS}
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    workdir = OUT / f"probe-{os.getpid()}"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
         str(workdir)],
        capture_output=True, text=True, env=env, timeout=150, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["seconds"] = out["done"] - t0
    out["scaled"] = speed.scaled(out["seconds"], out["kernel"])
    return out


def pyc_fresh(rk) -> tuple[int, int]:
    """Resamplekit modules with current bytecode in ``PYCACHE``, and all."""
    sources = sorted(Path(rk.__file__).parent.glob("*.py"))
    saved, sys.pycache_prefix = sys.pycache_prefix, str(PYCACHE)
    try:
        cached = [Path(importlib.util.cache_from_source(str(s)))
                  for s in sources]
    finally:
        sys.pycache_prefix = saved
    fresh = sum(c.exists() and c.stat().st_mtime >= s.stat().st_mtime
                for s, c in zip(sources, cached))
    return fresh, len(sources)


def git_stamp() -> dict:
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if rev else None
    return {"git_rev": rev, "git_dirty": None if rev is None else bool(status)}


def env_stamp(rk, bytecode: dict) -> dict:
    import numpy
    import scipy
    return {
        **git_stamp(),
        "nproc": cases.nproc(), "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "resamplekit": rk.__version__,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "bytecode_cache": {"probe_prefix": str(PYCACHE.relative_to(ROOT)),
                           **bytecode,
                           **{k: os.environ.get(k) for k in PYC_VARS}},
        "machine": platform.machine(),
    }


# -- the closed loop -----------------------------------------------------

def run_op(case, tracer=None) -> dict:
    """Run one operation and its check; the check is not timed."""
    span = tracer.begin_op(case.name) if tracer else None
    t0 = time.perf_counter()
    try:
        out = case.op()
        error = None
    except Exception as exc:  # counted as a failed operation
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer:
        tracer.end_op(span)
    digest = None
    if error is None:
        try:
            error = case.check(out)
            digest = cases.output_digest(out)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return {"case": case.name, "latency": latency, "error": error,
            "digest": digest}


def run_cycle(case_list, tracer=None) -> list[dict]:
    """One pass over the cases; each op's latency is also scaled to the
    reference machine speed measured just before it (``speed.py``), and
    the number of live threads when that was measured is kept."""
    out = []
    for c in case_list:
        threads = threading.active_count()
        kernel = speed.calibrate()
        rec = run_op(c, tracer)
        rec["threads"] = threads
        rec["kernel"] = kernel
        rec["scaled"] = speed.scaled(rec["latency"], kernel)
        out.append(rec)
    return out


def timed_loop(case_list, seconds: float) -> list[list[dict]]:
    """Whole cycles until ``seconds`` of wall time have passed."""
    cycles = []
    ops = cases.cycle(case_list)
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycles.append(run_cycle(ops))
    return cycles


def mark_changed_outputs(records, reference: dict) -> None:
    """An output that differs from the case's first output is a failure."""
    for rec in records:
        want = reference.get(rec["case"])
        if rec["error"] is None and want is not None and rec["digest"] != want:
            rec["error"] = "output differs from the first output of this case"


# -- metrics ---------------------------------------------------------------

def end_to_end(probes, first, cycles) -> dict:
    """Medians over set-up probes, first passes and timed cycles; every
    time is scaled to the reference machine speed."""
    lat = [r["scaled"] for cycle in cycles for r in cycle]
    per_cycle = [sum(r["error"] is None for r in cycle)
                 / sum(r["scaled"] for r in cycle) for cycle in cycles]
    first_passes = [p["first_pass"] for p in probes]
    first_passes.append(sum(r["scaled"] for r in first))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(p["scaled"] for p in probes), "s"),
        "first_pass_s": (statistics.median(first_passes), "s"),
        "throughput_ops_s": (statistics.median(per_cycle), "ops/s"),
        "latency_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "latency_p90_ms": (float(np.percentile(lat, 90)) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(summary, workload_inputs, untraced, traced_records) -> dict:
    k = TRACED_CYCLES
    L = summary["layers"]

    def g(name, field):
        return L[name][field] if name in L else 0

    def per_cycle(name, field, scale=1.0):
        return g(name, field) * scale / k

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    m = {}
    m["streams.substream.calls"] = (per_cycle("streams.substream", "calls"),
                                    "count")
    m["streams.substream.us_per_call"] = (ratio(
        g("streams.substream", "total"), g("streams.substream", "calls"), 1e6),
        "us")
    eb = "systems.evaluate_batch"
    m[eb + ".calls"] = (per_cycle(eb, "calls"), "count")
    m[eb + ".rows"] = (per_cycle(eb, "count"), "count")
    m[eb + ".self_ms"] = (per_cycle(eb, "self", 1e3), "ms")
    m[eb + ".ns_per_row"] = (ratio(g(eb, "self"), g(eb, "count"), 1e9), "ns")
    m["systems.evaluate.calls"] = (per_cycle("systems.evaluate", "calls"),
                                   "count")
    m["systems.evaluate.self_ms"] = (per_cycle("systems.evaluate", "self", 1e3),
                                     "ms")
    ev = "samples.enumerate_index_vectors"
    m[ev + ".vectors"] = (per_cycle(ev, "count"), "count")
    m[ev + ".self_ms"] = (per_cycle(ev, "self", 1e3), "ms")
    vm = "samples.values_matrix"
    m[vm + ".rows"] = (per_cycle(vm, "count"), "count")
    m[vm + ".self_ms"] = (per_cycle(vm, "self", 1e3), "ms")
    db = "resampling.draw_index_batch"
    m[db + ".rows"] = (per_cycle(db, "count"), "count")
    m[db + ".self_ms"] = (per_cycle(db, "self", 1e3), "ms")
    m[db + ".ns_per_row"] = (ratio(g(db, "self"), g(db, "count"), 1e9), "ns")
    em = "resampling.exhaustive_moments"
    m[em + ".calls"] = (per_cycle(em, "calls"), "count")
    m[em + ".self_ms"] = (per_cycle(em, "self", 1e3), "ms")
    et = "resampling.estimate_theta"
    m[et + ".calls"] = (per_cycle(et, "calls"), "count")
    m[et + ".us_per_call"] = (ratio(g(et, "total"), g(et, "calls"), 1e6), "us")
    ep = "pairs.enumerate_pairs"
    m[ep + ".patterns"] = (per_cycle(ep, "count"), "count")
    m[ep + ".self_ms"] = (per_cycle(ep, "self", 1e3), "ms")
    mm = "pairs.mixed_moment"
    m[mm + ".calls"] = (per_cycle(mm, "calls"), "count")
    m[mm + ".self_ms"] = (per_cycle(mm, "self", 1e3), "ms")
    m["pairs.pair_cells"] = (summary["pair_cells"] / k, "count")
    m["budget.check_budget.calls"] = (per_cycle("budget.check_budget", "calls"),
                                      "count")
    m["budget.cells_needed"] = (per_cycle("budget.check_budget", "count"),
                                "count")
    for name in ("wave.propagate_pair_probabilities",
                 "wave.hierarchical_variance", "wave.wave_estimate",
                 "partial.estimate_known_g", "partial.estimate_inner_mc"):
        m[name + ".self_ms"] = (per_cycle(name, "self", 1e3), "ms")
    rd = "damage.resample_damage_counts"
    m[rd + ".calls"] = (per_cycle(rd, "calls"), "count")
    m[rd + ".us_per_call"] = (ratio(g(rd, "total"), g(rd, "calls"), 1e6), "us")
    m[rd + ".ns_per_realization"] = (ratio(g(rd, "total"), g(rd, "count"), 1e9),
                                     "ns")
    dv = "damage.damage_variance_mc"
    m[dv + ".self_ms"] = (per_cycle(dv, "self", 1e3), "ms")
    threaded = summary["by_case"].get("damage-mc-threads", {})
    m[dv + ".wait_ms"] = (threaded[dv]["wait"] * 1e3 / k if dv in threaded
                          else 0.0, "ms")
    m["damage.plugin_variance_mc.self_ms"] = (per_cycle(
        "damage.plugin_variance_mc", "self", 1e3), "ms")
    ee = "renewal.estimate_exceedance"
    m[ee + ".self_ms"] = (per_cycle(ee, "self", 1e3), "ms")
    m[ee + ".ns_per_realization"] = (ratio(g(ee, "total"), g(ee, "count"), 1e9),
                                     "ns")
    for name in ("coverage.q_given_ordering", "coverage.rho",
                 "coverage.coverage_conditional"):
        m[name + ".calls"] = (per_cycle(name, "calls"), "count")
        m[name + ".self_ms"] = (per_cycle(name, "self", 1e3), "ms")
    m["coverage.w_vectors"] = (per_cycle("coverage.w_enumeration", "count"),
                               "count")
    m["coverage.coverage_R.self_ms"] = (per_cycle("coverage.coverage_R", "self",
                                                  1e3), "ms")
    cmc = summary["by_case"].get("coverage-mc", {})
    reps = workload_inputs.get("coverage-mc", {}).get("replications")
    q = cmc.get("coverage.q_given_ordering")
    m["coverage.q_calls_per_replication"] = (
        q["calls"] / (k * reps) if q and reps else 0.0, "ratio")
    m["distributions.sample.calls"] = (per_cycle("distributions.sample",
                                                 "calls"), "count")
    m["distributions.sample.self_ms"] = (per_cycle("distributions.sample",
                                                   "self", 1e3), "ms")
    m["cli.run.calls"] = (per_cycle("cli.run", "calls"), "count")
    m["cli.run.self_ms"] = (per_cycle("cli.run", "self", 1e3), "ms")
    by_case = {}
    for rec in untraced:
        by_case.setdefault(rec["case"], []).append(rec["scaled"])
    for name in cases.ALL_CASES:
        lat = by_case.get(name)
        m[f"case.{name}.p50_ms"] = (
            statistics.median(lat) * 1e3 if lat else 0.0, "ms")
    # both loops run whole cycles of the same operations
    untraced_op = sum(r["scaled"] for r in untraced) / len(untraced)
    traced_op = sum(r["scaled"] for r in traced_records) / len(traced_records)
    m["trace.overhead_ratio"] = (traced_op / untraced_op, "ratio")
    m["trace.unattributed_ms"] = (summary["unattributed"] * 1e3 / k, "ms")
    return m


# -- main ----------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        rk = import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import resamplekit from this checkout: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in cases.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(cases.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    problems = []
    probes = []
    fresh, total = pyc_fresh(rk)
    bytecode = {"resamplekit_fresh_before_probes": f"{fresh}/{total}"}
    if not args.trace:
        if fresh != total:
            probe_setup(args.workload, args.seed)  # untimed: fills PYCACHE
        bytecode["resamplekit_fresh_when_timed"] = "%d/%d" % pyc_fresh(rk)
        probes = [probe_setup(args.workload, args.seed)
                  for _ in range(SETUP_RUNS)]
    inputs = cases.make_inputs(args.workload, args.seed)
    digest = cases.inputs_digest(inputs)
    if any(p["digest"] != digest for p in probes):
        problems.append("set-up probes generated other inputs than this run")
    if any(p["threads"] > 1 for p in probes):
        problems.append("another thread was alive while a set-up probe ran "
                        "the speed kernel")

    workdir = OUT / f"work-{os.getpid()}"
    try:
        case_list = cases.build_cases(rk, args.workload, inputs, workdir)
        speed.calibrate()  # its own first run is cold
        first = run_cycle(case_list)
        reference = {r["case"]: r["digest"] for r in first}
        cycles = timed_loop(case_list, args.seconds)
        loop = [r for cycle in cycles for r in cycle]
        mark_changed_outputs(loop, reference)
        traced = []
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                for _ in range(TRACED_CYCLES):
                    traced += run_cycle(cases.cycle(case_list), tracer)
            finally:
                tracer.uninstall()
            mark_changed_outputs(traced, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = first + loop + traced
    failed = sum(r["error"] is not None for r in records)
    if any(r["threads"] > 1 for r in records):
        problems.append("another thread was alive while the speed kernel ran "
                        "before an operation")
    if args.trace:
        metrics = per_layer(summarize(tracer.spans), inputs, loop, traced)
        tracer.dump(OUT / f"trace-{args.workload}.json")
    else:
        metrics = end_to_end(probes, first, cycles)

    stamp = env_stamp(rk, bytecode)
    errors = sorted({(r["case"], r["error"]) for r in records if r["error"]})
    result = {"correct": failed == 0 and not problems,
              "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inputs_digest": digest, "env": stamp,
              "cycles": len(cycles), "cases": [c.name for c in case_list],
              "probes": probes, "problems": problems,
              "errors": [list(e) for e in errors],
              "speed_reference_s": speed.REFERENCE_S,
              "records": [{k: r[k] for k in ("case", "latency", "kernel",
                                              "threads", "scaled", "error")}
                          for r in records],
              "result": result}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {len(cycles)}  ops {len(loop)} timed + {len(first)} warm-up"
          + (f" + {len(traced)} traced" if traced else ""))
    print("env " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = f"  (n={len(loop)} ops)" if name.startswith("latency_") else ""
        print(f"  {name:48s} {value:14.6f} {unit}{note}")
    print(f"  fail_ratio {failed}/{len(records)}"
          + "".join(f"\n  FAILED {c}: {e}" for c, e in errors[:20])
          + "".join(f"\n  PROBLEM {p}" for p in problems))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
