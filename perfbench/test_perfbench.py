"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest -q perfbench

They start the runner as a subprocess, as a benchmark run does, and take a
few minutes because every untraced run launches its set-up probes.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import cases
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# The per-layer metrics that must be above 0 on each workload: the
# "on workload" column of the per-layer table in README.md, matched by name
# prefix.  A layer the tracer stops catching would read 0.
APPLIES = {
    "exact": (
        "systems.evaluate_batch.", "systems.evaluate.", "samples.",
        "resampling.exhaustive_moments.", "pairs.", "budget.",
        "wave.propagate_pair_probabilities.", "wave.hierarchical_variance.",
        "coverage.q_given_ordering.", "coverage.rho.",
        "coverage.coverage_conditional.", "coverage.w_vectors",
        "coverage.coverage_R.", "cli.run.", "trace."),
    "mc-throughput": (
        "streams.", "systems.evaluate_batch.", "samples.values_matrix.",
        "resampling.draw_index_batch.", "wave.wave_estimate.", "partial.",
        "damage.resample_damage_counts.", "renewal.", "trace."),
    "replication-study": (
        "streams.", "resampling.estimate_theta.",
        "damage.resample_damage_counts.", "damage.damage_variance_mc.",
        "damage.plugin_variance_mc.", "coverage.q_calls_per_replication",
        "distributions.sample.", "cli.run.", "trace."),
}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench/run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_short_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    report = proc.stdout.strip().splitlines()[:-1]
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        line = next(ln.split() for ln in report if ln.split()[:1] == [name])
        assert line[2] == metric["unit"], line
    if trace:
        prefixes = APPLIES[workload] + tuple(
            f"case.{c}." for c in cases.WORKLOADS[workload])
        applies = [n for n in result["metrics"] if n.startswith(prefixes)]
        assert all(any(n.startswith(p) for n in applies) for p in prefixes)
        assert [n for n in applies
                if not result["metrics"][n]["value"] > 0] == []


def test_cases_match_benchmark_json():
    assert sorted(cases.WORKLOADS) == sorted(w["name"]
                                             for w in BENCH["workloads"])
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    assert {f"case.{c}.p50_ms" for c in cases.ALL_CASES} <= per_layer
    for names in cases.WORKLOADS.values():
        ops = sum(cases.REPEATS.get(c, 1) for c in names)
        assert ops % 2 == 1


def test_corrupted_output_is_counted(monkeypatch, capsys):
    build = cases._build

    def corrupted(rk, name, *rest):
        case = build(rk, name, *rest)
        if name == "exh-tree6":
            op = case.op
            case.op = lambda: op() + 0.25
        if name == "var-sp4":
            def boom():
                raise RuntimeError("deliberate")
            case.op = boom
        return case

    monkeypatch.setattr(cases, "_build", corrupted)
    assert run.main(["--workload", "exact", "--seed", "3", "--seconds", "0",
                     "--trace", "1"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    # warm-up pass over the cases, then one timed and two traced cycles,
    # in which exh-tree6 runs REPEATS times
    names = cases.WORKLOADS["exact"]
    cycles = 1 + run.TRACED_CYCLES
    bad = 1 + cases.REPEATS["exh-tree6"]
    assert result["attempted"] == len(names) + cycles * (
        len(names) + cases.REPEATS["exh-tree6"] - 1)
    assert result["failed"] == 2 + cycles * bad
    assert result["correct"] is False
    assert "exhaustive_theta vs numpy grid mean" in out
    assert "raised RuntimeError: deliberate" in out


def test_thread_left_alive_makes_the_run_incorrect(monkeypatch, capsys):
    build = cases._build
    release = threading.Event()

    def leaky(rk, name, *rest):
        case = build(rk, name, *rest)
        if name == "var-2of3":
            op = case.op

            def op_and_thread():
                threading.Thread(target=release.wait).start()
                return op()
            case.op = op_and_thread
        return case

    monkeypatch.setattr(cases, "_build", leaky)
    try:
        assert run.main(["--workload", "exact", "--seed", "3", "--seconds",
                         "0", "--trace", "1"]) == 0
    finally:
        release.set()
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["correct"] is False
    assert "another thread was alive while the speed kernel ran" in out


@pytest.mark.parametrize("workload", sorted(cases.WORKLOADS))
def test_inputs_depend_on_the_seed_only(workload):
    a = cases.inputs_digest(cases.make_inputs(workload, 7))
    assert a == cases.inputs_digest(cases.make_inputs(workload, 7))
    assert a != cases.inputs_digest(cases.make_inputs(workload, 8))
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, "7",
         str(HERE / "out" / "probe-selftest")],
        capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(probe.stdout.strip().splitlines()[-1])["digest"] == a


def test_tracer_rebinds_every_copy_and_restores():
    rk = run.import_library()
    from tracer import Tracer
    orig = rk.systems.evaluate_batch
    copies = [rk.pairs, rk.resampling, rk.coverage, rk.systems]
    assert all(m.evaluate_batch is orig for m in copies)
    tracer = Tracer()
    tracer.install()
    try:
        assert all(m.evaluate_batch is not orig for m in copies)
        assert len({id(m.evaluate_batch) for m in copies}) == 1
        spec = rk.parse_system(cases.TWO_OF_THREE, params={"t": 1.0})
        samples = rk.SampleSet.from_samples(
            [("a", [0.5, 1.5]), ("b", [2.0, 0.1]), ("c", [1.2, 0.3])])
        rk.estimate_theta(spec, samples, None)
    finally:
        tracer.uninstall()
    assert all(m.evaluate_batch is orig for m in copies)
    names = [s[0] for s in tracer.spans]
    assert names.count("samples.enumerate_index_vectors") == 8 + 1
    assert names.count("systems.evaluate") == 8


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = _run("--workload", "exact", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
