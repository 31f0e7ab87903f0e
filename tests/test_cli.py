"""Tests for the command-line front end."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resamplekit.cli import _build_parser, main

TWO_OF_THREE = "ind(kofn(2; x1, x2, x3) > t)\n"
MIN_RACE = "cmp(x3 < min(x1, x2))\n"

SAMPLES_CSV = "a,b,c\n0.4,1.2,0.2\n1.3,0.6,0.7\n0.9,2.0,1.1\n"


@pytest.fixture()
def files(tmp_path):
    paths = {
        "spec": tmp_path / "twoof3.txt",
        "race": tmp_path / "race.txt",
        "samples": tmp_path / "samples.csv",
        "ha": tmp_path / "ha.txt",
        "hb": tmp_path / "hb.txt",
    }
    paths["spec"].write_text(TWO_OF_THREE)
    paths["race"].write_text(MIN_RACE)
    paths["samples"].write_text(SAMPLES_CSV)
    paths["ha"].write_text("1.0 0.4 2.2 0.9\n")
    paths["hb"].write_text("0.5, 1.5, 0.2, 3.0, 0.8\n")
    paths["dir"] = tmp_path
    return paths


def invoke(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def error_of(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code != 0
    envelope = json.loads(err)["error"]
    assert envelope["exit"] == code
    return code, envelope


# -- estimate --------------------------------------------------------------

def test_estimate_json_report(files, capsys):
    report = invoke_json(capsys, [
        "estimate", "--spec", str(files["spec"]), "--samples",
        str(files["samples"]), "--t", "1.0", "--r", "500", "--seed", "7"])
    assert report["subcommand"] == "estimate"
    assert 0.0 <= report["estimate"] <= 1.0
    assert report["sizes"] == [3, 3, 3]
    assert report["r"] == 500 and report["seed"] == 7
    assert report["estimate_se"] >= 0.0
    exact = report["exact_variance"]
    assert exact["mode"] == "empirical"
    assert exact["variance"] > 0.0
    # the exact assembly should sit near the realization spread / r
    assert exact["variance"] == pytest.approx(
        report["empirical_variance"] / 500, rel=1.0)


def test_estimate_deterministic(files, capsys):
    argv = ["estimate", "--spec", str(files["spec"]), "--samples",
            str(files["samples"]), "--t", "1.0", "--r", "200", "--seed", "9"]
    first = invoke(capsys, argv)
    second = invoke(capsys, argv)
    assert first == second


def test_estimate_formats(files, capsys):
    argv = ["estimate", "--spec", str(files["spec"]), "--samples",
            str(files["samples"]), "--t", "1.0", "--r", "100", "--seed", "1"]
    _, csv_out, _ = invoke(capsys, argv + ["--format", "csv"])
    lines = csv_out.strip().splitlines()
    assert lines[0] == "quantity,value,se"
    assert lines[1].startswith("estimate,")
    _, table_out, _ = invoke(capsys, argv + ["--format", "table"])
    assert "estimate" in table_out and "," not in table_out.splitlines()[1]


def test_estimate_with_binding(files, capsys):
    shared = files["dir"] / "shared.csv"
    shared.write_text("p,c\n0.4,1.2\n1.3,0.6\n0.9,2.0\n")
    binding = files["dir"] / "binding.json"
    binding.write_text(json.dumps({"1": "p", "2": "p", "3": "c"}))
    report = invoke_json(capsys, [
        "estimate", "--spec", str(files["spec"]), "--samples", str(shared),
        "--binding", str(binding), "--t", "1.0", "--r", "100", "--seed", "3"])
    assert report["estimate"] >= 0.0
    assert report["sizes"] == [3, 3, 3]   # per argument; two share one sample


def test_estimate_missing_seed(files, capsys):
    code, env = error_of(capsys, [
        "estimate", "--spec", str(files["spec"]), "--samples",
        str(files["samples"]), "--t", "1.0", "--r", "100"])
    assert code == 2
    assert env["code"] == "schema-violation"
    assert "--seed" in env["message"]


def test_estimate_missing_file(files, capsys):
    code, env = error_of(capsys, [
        "estimate", "--spec", str(files["dir"] / "nope.txt"), "--samples",
        str(files["samples"]), "--t", "1.0", "--r", "10", "--seed", "1"])
    assert code == 3
    assert env["code"] == "file-not-found"


@pytest.mark.parametrize("which", ["--spec", "--samples"])
def test_estimate_input_path_is_a_directory(files, capsys, which):
    argv = {"--spec": str(files["spec"]), "--samples": str(files["samples"])}
    argv[which] = str(files["dir"])
    code, env = error_of(capsys, [
        "estimate", *itertools.chain(*argv.items()), "--t", "1.0", "--r", "10",
        "--seed", "1"])
    assert code == 3
    assert env["code"] == "file-not-found"
    assert env["detail"]["path"] == str(files["dir"])


def test_estimate_bad_spec_text(files, capsys):
    bad = files["dir"] / "bad.txt"
    bad.write_text("ind(kofn(9; x1) > )\n")
    code, env = error_of(capsys, [
        "estimate", "--spec", str(bad), "--samples", str(files["samples"]),
        "--t", "1.0", "--r", "10", "--seed", "1"])
    assert code == 2


def chain(depth: int, inner: str) -> str:
    """``inner`` under ``depth`` nested one-child ``min`` nodes."""
    return "min(" * depth + inner + ")" * depth


def test_estimate_deep_spec(files, capsys):
    """Specs have no nesting limit: a 5,000-deep one-child chain around the
    2-of-3 body gives the shallow spec's report, since min of one child is
    that child."""
    deep = files["dir"] / "deep.txt"
    deep.write_text(f"ind({chain(5000, 'kofn(2; x1, x2, x3)')} > t)\n")
    argv = ["--samples", str(files["samples"]), "--t", "1.0", "--r", "50",
            "--seed", "3"]
    shallow = invoke_json(capsys, ["estimate", "--spec", str(files["spec"])]
                          + argv)
    assert invoke_json(capsys, ["estimate", "--spec", str(deep)]
                       + argv) == shallow


def test_estimate_deep_spec_with_repeated_leaf(files, capsys):
    spec = files["dir"] / "deep.txt"
    spec.write_text(f"ind({chain(5000, 'min(x1, x1)')} > t)\n")
    code, env = error_of(capsys, [
        "estimate", "--spec", str(spec), "--samples", str(files["samples"]),
        "--t", "1.0", "--r", "10", "--seed", "1"])
    assert code == 2
    assert env["code"] == "schema-violation"
    assert "leaf set must be exactly x1..x2 with no repeats" in env["message"]


def test_estimate_gives_the_exact_variance_at_200_values_per_sample(
        files, capsys, tmp_path):
    """The 2-of-3 indicator reads each argument only through its side of
    t, so its exact variance takes the class lattice (8 cells, 8 joint
    injections and 600 values) instead of the 200^3 value grid, within a
    budget of 10^4; mu is the 2-of-3 reliability polynomial of the shares
    of each sample above t, and the realizations are independent."""
    cols = np.random.default_rng(26).exponential(1.0, (3, 200))
    path = tmp_path / "big.csv"
    path.write_text("a,b,c\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in cols.T))
    report = invoke_json(capsys, [
        "estimate", "--spec", str(files["spec"]), "--samples", str(path),
        "--t", "1.0", "--r", "50", "--seed", "3", "--budget", "10000"])
    exact = report["exact_variance"]
    p1, p2, p3 = (Fraction(int(np.count_nonzero(c > 1.0)), 200) for c in cols)
    mu = p1 * p2 + p1 * p3 + p2 * p3 - 2 * p1 * p2 * p3
    assert exact["mu"] == exact["mu2"] == float(mu)
    assert {row["method"] for row in exact["pairs"]} == {"empirical-exact"}
    assert exact["variance"] == pytest.approx(float((mu - mu * mu) / 50),
                                              rel=1e-12)
    assert report["sizes"] == [200, 200, 200]


def test_estimate_budget_exceeded(files, capsys):
    code, env = error_of(capsys, [
        "estimate", "--spec", str(files["spec"]), "--samples",
        str(files["samples"]), "--t", "1.0", "--r", "10", "--seed", "1",
        "--budget", "5"])
    assert code == 4
    assert env["code"] == "budget-exceeded"
    assert env["detail"]["budget"] == 5


@pytest.mark.parametrize("argv, env", [
    (["--budget", "0"], None), (["--budget", "-5"], None),
    ([], {"RESAMPLEKIT_BUDGET": "0"})])
def test_estimate_non_positive_budget_is_a_schema_violation(files, capsys,
                                                            monkeypatch,
                                                            argv, env):
    """--budget and RESAMPLEKIT_BUDGET reject a non-positive budget alike,
    also on Monte Carlo coverage, which never reaches an enumeration."""
    for key, value in (env or {}).items():
        monkeypatch.setenv(key, value)
    estimate = [
        "estimate", "--spec", str(files["spec"]), "--samples",
        str(files["samples"]), "--t", "1.0", "--r", "10", "--seed", "1"]
    coverage_mc = [
        "coverage", "--spec", str(files["race"]), "--gen", "exp:3,exp:3,exp:2",
        "--sizes", "2,2,2", "--gamma", "0.8", "--theta", "0.25", "--k", "10",
        "--r", "16", "--mode", "mc", "--seed", "1", "--replications", "50"]
    for command in (estimate, coverage_mc):
        code, envelope = error_of(capsys, [*command, *argv])
        assert code == 2
        assert envelope["code"] == "schema-violation"
        assert "must be positive" in envelope["message"]


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_estimate_non_finite_report_is_a_schema_violation(tmp_path, capsys,
                                                          fmt):
    """Sums of 1e308 overflow: no report, exit 2, one envelope naming the
    field, and no numpy warning on stderr."""
    spec = tmp_path / "sum.txt"
    spec.write_text("sum(x1, x2, x3)\n")
    samples = tmp_path / "big.csv"
    samples.write_text("a,b,c\n" + "1e308,1e308,1e308\n" * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, [
            "estimate", "--spec", str(spec), "--samples", str(samples),
            "--r", "10", "--seed", "1", "--format", fmt])
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    envelope = json.loads(lines[0])["error"]
    assert envelope["code"] == "schema-violation"
    assert envelope["detail"] == {"field": "report.estimate"}


def test_estimate_infeasible_binding(files, capsys):
    short = files["dir"] / "short.csv"
    short.write_text("a,b\n1.0,2.0\n3.0,\n")   # sample b has one value
    binding = files["dir"] / "binding.json"
    binding.write_text(json.dumps({"1": "b", "2": "b", "3": "a"}))
    code, env = error_of(capsys, [
        "estimate", "--spec", str(files["spec"]), "--samples", str(short),
        "--binding", str(binding), "--t", "1.0", "--r", "10", "--seed", "1"])
    assert code == 5
    assert env["code"] == "infeasible-layout"


# -- damage ----------------------------------------------------------------

def test_damage_json_report(files, capsys):
    report = invoke_json(capsys, [
        "damage", "--ha", str(files["ha"]), "--hb", str(files["hb"]),
        "--t", "3.0", "--r", "400", "--seed", "5"])
    assert report["subcommand"] == "damage"
    assert report["n_a"] == 4 and report["n_b"] == 5
    assert len(report["active_pmf"]) == 5
    assert sum(report["active_pmf"]) == pytest.approx(1.0, abs=1e-9)
    assert len(report["hybrid_pmf"]) == 4 + 5 + 1
    assert sum(report["hybrid_pmf"]) == pytest.approx(1.0, abs=1e-9)
    mean = sum(i * p for i, p in enumerate(report["active_pmf"]))
    assert report["active_mean"] == pytest.approx(mean)
    assert report["plugin"]["rate"] == pytest.approx(4.0 / 4.5)
    assert "duration_overlap_mean" in report["diagnostics"]


def test_damage_imax_and_determinism(files, capsys):
    argv = ["damage", "--ha", str(files["ha"]), "--hb", str(files["hb"]),
            "--t", "3.0", "--r", "100", "--seed", "5", "--imax", "6"]
    first = invoke(capsys, argv)
    second = invoke(capsys, argv)
    assert first == second
    report = json.loads(first[1])
    assert len(report["hybrid_pmf"]) == 7


def test_damage_single_realization(files, capsys):
    # r = 1 draws no realization pair: the pair diagnostics are null
    code, out, err = invoke(capsys, [
        "damage", "--ha", str(files["ha"]), "--hb", str(files["hb"]),
        "--t", "3.0", "--r", "1", "--seed", "5"])
    assert code == 0, err
    report = json.loads(out, parse_constant=lambda c: pytest.fail(c))
    diag = report["diagnostics"]
    assert diag["pairs_inspected"] == 0
    assert diag["duration_overlap_mean"] is None
    assert diag["arrival_fixed_points_mean"] is None


def test_damage_infeasible(files, capsys):
    code, env = error_of(capsys, [
        "damage", "--ha", str(files["hb"]), "--hb", str(files["ha"]),
        "--t", "3.0", "--r", "100", "--seed", "5"])
    assert code == 5   # n_A = 5 > n_B = 4


def test_damage_truth_anchor(capsys):
    report = invoke_json(capsys, [
        "damage-truth", "--lambda", "0.5", "--deg", "triangular:0,2,4",
        "--t", "5.0", "--na", "8"])
    assert report["active_mean"] == pytest.approx(1.0, abs=1e-9)
    assert report["terminal_mean"] == pytest.approx(1.5, abs=1e-9)
    assert report["active_pmf"][0] == pytest.approx(math.exp(-1.0), abs=1e-9)
    ee = report["estimator_expectation"]
    assert ee["p1"] == pytest.approx(0.4, rel=1e-9)
    assert ee["active_pmf"][1] == pytest.approx(0.368, abs=0.001)


@pytest.mark.parametrize("argv", [
    ["damage", "--ha", "ha", "--hb", "hb", "--t", "3.0", "--r", "100",
     "--seed", "5"],
    ["damage-truth", "--lambda", "0.5", "--deg", "triangular:0,2,4",
     "--t", "5.0"]])
def test_damage_negative_imax_is_refused(files, capsys, argv):
    argv = [str(files[a]) if a in ("ha", "hb") else a for a in argv]
    code, env = error_of(capsys, argv + ["--imax", "-1"])
    assert (code, env["code"]) == (2, "schema-violation")
    assert env["message"] == "need i_max >= 0, got -1"


@pytest.mark.parametrize("bad", [["--t", "inf"], ["--imax", "-1"],
                                 ["--imax", "2"]])
def test_damage_checks_its_arguments_before_resampling(files, capsys,
                                                       monkeypatch, bad):
    """An infinite t and an i_max below 0 or below n_A = 4 exit 2 before
    any realization is drawn."""
    def refused(*args, **kwargs):
        raise AssertionError("the realizations were drawn")

    monkeypatch.setattr("resamplekit.cli.resample_damage_counts", refused)
    argv = ["damage", "--ha", str(files["ha"]), "--hb", str(files["hb"]),
            "--t", "3.0", "--r", "100", "--seed", "5"]
    code, env = error_of(capsys, argv + bad)
    assert (code, env["code"]) == (2, "schema-violation")


def test_damage_truth_bad_distribution(capsys):
    code, env = error_of(capsys, [
        "damage-truth", "--lambda", "0.5", "--deg", "warbler:1,2",
        "--t", "5.0"])
    assert code == 2


# -- renewal ---------------------------------------------------------------

@pytest.fixture()
def renewal_files(tmp_path):
    rng = np.random.default_rng(10)
    hx = tmp_path / "hx.txt"
    hy = tmp_path / "hy.txt"
    hx.write_text(" ".join(f"{v:.6f}" for v in rng.normal(2.0, 1.0, 10)))
    hy.write_text(" ".join(f"{v:.6f}" for v in rng.normal(2.0, 1.0, 10)))
    return hx, hy


def test_renewal_json_report(renewal_files, capsys):
    hx, hy = renewal_files
    report = invoke_json(capsys, [
        "renewal", "--hx", str(hx), "--hy", str(hy), "--m", "5", "--k", "1",
        "--r", "800", "--seed", "6"])
    assert report["subcommand"] == "renewal"
    assert report["m_x"] == 5 and report["m_y"] == 4
    assert report["threshold"] == 1
    assert 0.0 <= report["estimate"] <= 1.0


def test_renewal_infeasible(renewal_files, capsys):
    hx, hy = renewal_files
    code, env = error_of(capsys, [
        "renewal", "--hx", str(hx), "--hy", str(hy), "--m", "6", "--k", "0",
        "--r", "100", "--seed", "6"])
    assert code == 5   # n=10 < 2m=12


def test_renewal_bad_threshold(renewal_files, capsys):
    hx, hy = renewal_files
    code, env = error_of(capsys, [
        "renewal", "--hx", str(hx), "--hy", str(hy), "--m", "5", "--k", "9",
        "--r", "100", "--seed", "6"])
    assert code == 2


def test_renewal_truth_normal_table(capsys):
    report = invoke_json(capsys, [
        "renewal-truth", "--x", "normal:2,1", "--y", "normal:2,1",
        "--m", "5", "--k", "0..3", "--nx", "10", "--ny", "10",
        "--r", "1000000000"])
    rows = report["rows"]
    assert [row["threshold"] for row in rows] == [0, 1, 2, 3]
    assert rows[0]["theta"] == pytest.approx(0.5)
    assert rows[0]["variance"] == pytest.approx(0.0842, abs=5e-4)
    assert rows[3]["variance"] == pytest.approx(0.0012, abs=5e-4)
    thetas = [row["theta"] for row in rows]
    assert all(a < b for a, b in zip(thetas, thetas[1:]))


def test_renewal_truth_grid_kit(capsys):
    report = invoke_json(capsys, [
        "renewal-truth", "--x", "exp:1", "--y", "exp:1", "--m", "3",
        "--k", "1", "--nx", "6", "--ny", "6", "--r", "100"])
    row = report["rows"][0]
    # equal exponential rates: Theta = P{Beta(3,2) > 1/2} = 11/16
    assert row["theta"] == pytest.approx(11.0 / 16.0, abs=1e-4)


def test_renewal_truth_bad_range(capsys):
    code, env = error_of(capsys, [
        "renewal-truth", "--x", "normal:2,1", "--y", "normal:2,1",
        "--m", "5", "--k", "3..1", "--nx", "10", "--ny", "10", "--r", "10"])
    assert code == 2
    code, env = error_of(capsys, [
        "renewal-truth", "--x", "normal:2,1", "--y", "normal:2,1",
        "--m", "5", "--k", "7", "--nx", "10", "--ny", "10", "--r", "10"])
    assert code == 2


# -- coverage --------------------------------------------------------------

def test_coverage_exact_json(files, capsys):
    report = invoke_json(capsys, [
        "coverage", "--spec", str(files["race"]), "--gen", "exp:3,exp:3,exp:2",
        "--sizes", "2,2,2", "--gamma", "0.5,0.9", "--theta", "0.25",
        "--k", "10", "--r", "16"])
    assert report["subcommand"] == "coverage"
    assert report["mode"] == "exact"
    assert report["total_probability"] == pytest.approx(1.0, abs=1e-9)
    assert report["coverage"][0] == pytest.approx(0.557429, abs=1e-5)
    assert report["coverage"][1] == pytest.approx(0.714547, abs=1e-5)


def test_coverage_exact_refuses_an_overflowing_quantile_span(files, capsys):
    code, env = error_of(capsys, [
        "coverage", "--spec", str(files["race"]), "--gen",
        "normal:0,1e308,exp:3,exp:2", "--sizes", "2,2,2", "--gamma", "0.9",
        "--theta", "0.25", "--k", "10", "--r", "16"])
    assert (code, env["code"]) == (2, "schema-violation")
    assert "overflows" in env["message"] and "mode='mc'" in env["message"]


PAST_INT64 = str(10 ** 30)


@pytest.mark.parametrize("argv, name", [
    (["--sizes", "2,2,2", "--k", PAST_INT64, "--r", "16"], "k"),
    (["--sizes", "2,2,2", "--k", "10", "--r", PAST_INT64], "r"),
    (["--sizes", f"2,2,{PAST_INT64}", "--k", "10", "--r", "16", "--mode",
      "mc", "--seed", "1"], "sample size")])
def test_coverage_refuses_counts_past_int64(files, capsys, argv, name):
    code, env = error_of(capsys, [
        "coverage", "--spec", str(files["race"]), "--gen", "exp:3,exp:3,exp:2",
        "--gamma", "0.8", "--theta", "0.25"] + argv)
    assert (code, env["code"]) == (2, "schema-violation")
    assert env["message"] == f"{name} must be below 2**63, got {PAST_INT64}"


def test_renewal_truth_takes_sample_sizes_past_int64(capsys):
    """The closed form sums in Python ints, so n_X has no int64 bound."""
    report = invoke_json(capsys, [
        "renewal-truth", "--x", "exp:1", "--y", "exp:1", "--m", "3",
        "--k", "1", "--nx", PAST_INT64, "--ny", "6", "--r", "100"])
    assert report["n_x"] == 10 ** 30


def test_coverage_exact_refuses_sizes_past_the_float_range(tmp_path,
                                                           capsys):
    spec = tmp_path / "pair.txt"
    spec.write_text("cmp(x2 < x1)")
    code, env = error_of(capsys, [
        "coverage", "--spec", str(spec), "--gen", "normal:0,1,normal:0,1",
        "--sizes", "171,1", "--gamma", "0.9", "--theta", "0.5", "--k", "10",
        "--r", "16"])
    assert (code, env["code"]) == (2, "schema-violation")
    assert "too large" in env["message"] and "mode='mc'" in env["message"]


def test_coverage_mc_requires_seed(files, capsys):
    code, env = error_of(capsys, [
        "coverage", "--spec", str(files["race"]), "--gen", "exp:3,exp:3,exp:2",
        "--sizes", "2,2,2", "--gamma", "0.8", "--theta", "0.25",
        "--k", "10", "--r", "16", "--mode", "mc"])
    assert code == 2
    assert "--seed" in env["message"]


def test_threads_option_is_rejected(files, capsys):
    argv = ["coverage", "--spec", str(files["race"]), "--gen",
            "exp:3,exp:3,exp:2", "--sizes", "2,2,2", "--gamma", "0.8",
            "--theta", "0.25", "--k", "10", "--r", "16", "--mode", "mc",
            "--seed", "44", "--replications", "2000"]
    report = invoke_json(capsys, argv)
    assert report["replications"] == 2000
    assert len(report["se"]) == 1
    for args in (argv, ["repro", "table-damage"]):
        code, out, err = invoke(capsys, args + ["--threads", "1"])
        assert out == ""
        envelope = json.loads(err)["error"]
        assert (code, envelope["exit"], envelope["code"]) \
            == (2, 2, "schema-violation")
        assert "--threads" in envelope["message"]


def test_coverage_protocol_csv_needs_exact_mode(files, capsys):
    out_csv = files["dir"] / "protocol.csv"
    code, out, err = invoke(capsys, [
        "coverage", "--spec", str(files["race"]), "--gen", "exp:3,exp:3,exp:2",
        "--sizes", "2,2,2", "--gamma", "0.8", "--theta", "0.25", "--k", "10",
        "--r", "16", "--mode", "mc", "--seed", "44", "--replications", "50",
        "--protocol-csv", str(out_csv)])
    assert out == ""
    envelope = json.loads(err)["error"]
    assert (code, envelope["exit"], envelope["code"]) \
        == (2, 2, "schema-violation")
    assert "--protocol-csv" in envelope["message"]
    assert not out_csv.exists()


def test_coverage_protocol_csv(files, capsys):
    out_csv = files["dir"] / "protocol.csv"
    invoke_json(capsys, [
        "coverage", "--spec", str(files["race"]), "--gen", "exp:3,exp:3,exp:2",
        "--sizes", "2,2,2", "--gamma", "0.8", "--theta", "0.25",
        "--k", "10", "--r", "16", "--protocol-csv", str(out_csv)])
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("w,probability,q,rho")
    assert len(lines) == 1 + 90   # 6!/(2!2!2!) interleavings
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


# Bytes of the race's coverage outputs: the --protocol-csv file at (2,2,2),
# exact coverage and total probability at (2,2,3), and mc coverage and SE
# at (2,2,3) for seed 44.  The exact values come from the count-vector DP;
# each lies within 1e-15 of the sum over the 210 W rows of the protocol
# table (0x1.13f3b8ccfa336p-1, 0x1.21e377beb52bbp-1, 0x1.37633f0a37b80p-1,
# 0x1.595e696964ce5p-1, 0x1.8623f3f6726b7p-1; total 0x1.0000000000003p+0).
PROTOCOL_CSV_SHA256 = \
    "a2d14abb7603065fa4eff31540bc4d62852c6afe63c0b58d9cf5d0800b20cbf0"
EXACT_COVERAGE_HEX = ("0x1.13f3b8ccfa33cp-1", "0x1.21e377beb52bdp-1",
                      "0x1.37633f0a37b7ep-1", "0x1.595e696964cdcp-1",
                      "0x1.8623f3f6726b9p-1")
EXACT_TOTAL_HEX = "0x1.0000000000000p+0"
MC_COVERAGE_HEX = ("0x1.1135700d3a5adp-1", "0x1.5720e96a727fep-1")
MC_SE_HEX = ("0x1.1e01f612dc9b9p-7", "0x1.e835ae36f4859p-8")


def test_coverage_outputs_keep_their_bytes(files, capsys):
    race = ["coverage", "--spec", str(files["race"]), "--gen",
            "exp:3,exp:3,exp:2", "--theta", "0.25", "--k", "10", "--r", "16"]
    out_csv = files["dir"] / "protocol.csv"
    invoke_json(capsys, race + ["--sizes", "2,2,2", "--gamma", "0.8",
                                "--protocol-csv", str(out_csv)])
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == \
        PROTOCOL_CSV_SHA256
    exact = invoke_json(capsys, race + ["--sizes", "2,2,3", "--gamma",
                                        "0.5,0.6,0.7,0.8,0.9"])
    assert tuple(c.hex() for c in exact["coverage"]) == EXACT_COVERAGE_HEX
    assert exact["total_probability"].hex() == EXACT_TOTAL_HEX
    mc = invoke_json(capsys, race + ["--sizes", "2,2,3", "--gamma", "0.5,0.8",
                                     "--mode", "mc", "--seed", "44",
                                     "--replications", "3000"])
    assert tuple(c.hex() for c in mc["coverage"]) == MC_COVERAGE_HEX
    assert tuple(s.hex() for s in mc["se"]) == MC_SE_HEX


def test_coverage_enumerates_w_only_for_the_protocol_csv(files, capsys,
                                                         monkeypatch):
    import resamplekit.cli as cli_module
    calls = []
    real = cli_module.protocol_table
    monkeypatch.setattr(cli_module, "protocol_table",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    race = ["coverage", "--spec", str(files["race"]), "--gen",
            "exp:3,exp:3,exp:2", "--sizes", "9,9,3", "--gamma", "0.8",
            "--theta", "0.25", "--k", "10", "--r", "16"]
    # 64,664,600 interleavings: over the budget for a table, not for the DP
    report = invoke_json(capsys, race + ["--budget", "1000000"])
    assert report["coverage"][0] == pytest.approx(0.701066, abs=1e-6)
    assert calls == []
    code, env = error_of(capsys, race + ["--budget", "1000000",
                                         "--protocol-csv",
                                         str(files["dir"] / "w.csv")])
    assert code == 4 and "ordering enumeration" in env["message"]
    assert len(calls) == 1
    assert not (files["dir"] / "w.csv").exists()


# The exact rows beside the Monte Carlo ones; the published (3,3,3) row.
PUBLISHED_COVERAGE = (0.533, 0.576, 0.625, 0.686, 0.770)


def test_repro_coverage_reports_exact_beside_mc(capsys):
    report = invoke_json(capsys, ["repro", "table-coverage"])
    assert len(report["rows"]) == 7
    for row in report["rows"]:
        for mc, se, exact in zip(row["coverage"], row["se"], row["exact"]):
            assert abs(mc - exact) <= 4.0 * se, row["sizes"]
    first = report["rows"][0]
    assert first["sizes"] == [3, 3, 3]
    assert first["exact"] == pytest.approx(PUBLISHED_COVERAGE, abs=1e-3)
    code, out, _ = invoke(capsys, ["repro", "table-coverage", "--format",
                                   "csv"])
    assert code == 0
    assert out.splitlines()[0].startswith("sizes,R[0.5],se[0.5],exact[0.5],")


def test_coverage_non_order_spec(files, capsys):
    code, env = error_of(capsys, [
        "coverage", "--spec", str(files["spec"]), "--gen",
        "exp:3,exp:3,exp:2", "--sizes", "2,2,2", "--gamma", "0.8",
        "--theta", "0.25", "--k", "10", "--r", "16"])
    assert code == 2   # threshold node is not order-invariant


@pytest.mark.parametrize("argv, name", [
    (["coverage", "--gen", "exp:nan,exp:3,exp:2", "--sizes", "2,2,2",
      "--gamma", "0.8", "--theta", "0.25", "--k", "10", "--r", "16"], "rate"),
    (["coverage", "--gen", "normal:0,1,normal:0,inf,exp:1", "--sizes", "2,2,2",
      "--gamma", "0.8", "--theta", "0.25", "--k", "10", "--r", "16"], "sigma"),
    (["damage-truth", "--lambda", "0.5", "--deg", "triangular:0,nan,4",
      "--t", "5.0"], "mode"),
    (["renewal-truth", "--x", "normal:inf,1", "--y", "normal:2,1", "--m", "5",
      "--k", "1", "--nx", "10", "--ny", "10", "--r", "10"], "mu"),
    (["coverage", "--gen", "exp:3,exp:3,exp:2", "--sizes", "2,2,2",
      "--gamma", "0.8", "--theta", "inf", "--k", "10", "--r", "16"], "theta"),
    (["coverage", "--gen", "exp:3,exp:3,exp:2", "--sizes", "2,2,2",
      "--gamma", "0.8", "--theta", "nan", "--k", "10", "--r", "16", "--mode",
      "mc", "--seed", "1"], "theta"),
])
def test_non_finite_distribution_parameter_fails_up_front(files, capsys, argv,
                                                          name):
    if argv[0] == "coverage":
        argv = argv[:1] + ["--spec", str(files["race"])] + argv[1:]
    code, env = error_of(capsys, argv)
    assert (code, env["code"]) == (2, "schema-violation")
    assert f"parameter {name} must be finite" in env["message"]


# -- generic plumbing ------------------------------------------------------

def test_unknown_subcommand(capsys):
    code, env = error_of(capsys, ["frobnicate"])
    assert code == 2


# -- fuzzing: every input ends in a documented exit and one envelope ------

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
VALID_SPECS = [TWO_OF_THREE, MIN_RACE, "cmp(x1 < x2)", "x1", "sum(x1, x2, x3)",
               "ind(x1 > t)", "ind(min(max(x1, x2), x3) < t)",
               "cmp(max(x1, x2) > kofn(1; x3))", "min(min(min(x2, x1)), x3)"]
SPEC_TOKENS = ["min(", "max(", "sum(", "kofn(", "ind(", "cmp(", "(", ")", ",",
               ";", "<", ">", " ", "x0", "x1", "x2", "x3", "x4", "t", "u",
               "1", "2", "-1", "2.5", "1e999", "nan", "x"]


@st.composite
def mutated_spec(draw):
    """A valid spec with one slice replaced by a few grammar tokens."""
    text = draw(st.sampled_from(VALID_SPECS))
    lo = draw(st.integers(0, len(text)))
    hi = draw(st.integers(lo, len(text)))
    tokens = draw(st.lists(st.sampled_from(SPEC_TOKENS), max_size=3))
    return text[:lo] + "".join(tokens) + text[hi:]


SPEC_TEXT = st.one_of(
    st.sampled_from(VALID_SPECS), mutated_spec(),
    st.lists(st.sampled_from(SPEC_TOKENS), max_size=24).map("".join),
    st.text(max_size=30))
NUMBER = st.floats(-3, 3).map(lambda x: format(x, ".3g"))
CELL = st.one_of(
    NUMBER, NUMBER.map(lambda x: x.lstrip("-")),
    st.sampled_from(["", "0", "-0", "1e308", "1e-320", "nan", "inf", "-inf",
                     "x", " ", '"1"']),
    st.floats().map(repr), st.text(max_size=4))


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(token):
    raise ValueError(f"report holds {token}, which is not strict JSON")


def assert_documented(code, out, err):
    assert code in DOCUMENTED_EXITS
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=reject_constant)  # strict JSON
        return
    lines = err.splitlines()
    assert len(lines) == 1, err
    envelope = json.loads(lines[0])["error"]
    assert envelope["exit"] == code
    assert isinstance(envelope["code"], str) and envelope["message"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "samples.csv").write_text(SAMPLES_CSV)
    return path


FUZZ = settings(derandomize=True, deadline=None, max_examples=60,
                database=None)


@FUZZ
@given(spec=st.one_of(SPEC_TEXT.map(lambda t: t.encode("utf-8", "replace")),
                      st.binary(max_size=40)),
       command=st.sampled_from(["estimate", "coverage"]),
       budget=st.sampled_from([1, 50, 100_000]))
def test_fuzz_spec_file(fuzz_dir, spec, command, budget):
    path = fuzz_dir / "spec.txt"
    path.write_bytes(spec)
    if command == "estimate":
        argv = ["estimate", "--spec", str(path), "--samples",
                str(fuzz_dir / "samples.csv"), "--t", "1.0", "--r", "5",
                "--seed", "1", "--budget", str(budget)]
    else:
        argv = ["coverage", "--spec", str(path), "--gen", "exp:1,exp:2,exp:3",
                "--sizes", "1,2,1", "--gamma", "0.8", "--theta", "0.5",
                "--k", "5", "--r", "4"]
    assert_documented(*run_main(argv))


@FUZZ
@given(header=st.just(["a", "b", "c"]) | st.lists(
           st.sampled_from(["a", "b", "c", "", "a b", "1"]), max_size=4),
       rows=st.lists(st.lists(CELL, min_size=3, max_size=3)
                     | st.lists(CELL, max_size=4), max_size=5),
       budget=st.sampled_from([1, 100_000]))
def test_fuzz_samples_csv(fuzz_dir, header, rows, budget):
    path = fuzz_dir / "cells.csv"
    path.write_text("\n".join(",".join(row) for row in [header] + rows)
                    + "\n")
    spec = fuzz_dir / "twoof3.txt"
    spec.write_text(TWO_OF_THREE)
    assert_documented(*run_main([
        "estimate", "--spec", str(spec), "--samples", str(path), "--t", "1.0",
        "--r", "5", "--seed", "1", "--budget", str(budget)]))


@FUZZ
@given(binding=st.one_of(
    st.dictionaries(st.sampled_from(["1", "2", "3", "4", "0", "x", "-1"]),
                    st.sampled_from(["a", "b", "c", "d", 1, None, [], ""]),
                    max_size=4).map(json.dumps).map(str.encode),
    st.sampled_from([b"[]", b"null", b"3", b'"a"', b"{", b""]),
    st.binary(max_size=20)))
@example(binding=b"[]")         # not an object
@example(binding=b'{"1": []}')  # an unhashable sample name
def test_fuzz_binding_json(fuzz_dir, binding):
    path = fuzz_dir / "binding.json"
    path.write_bytes(binding)
    spec = fuzz_dir / "twoof3.txt"
    spec.write_text(TWO_OF_THREE)
    assert_documented(*run_main([
        "estimate", "--spec", str(spec), "--samples",
        str(fuzz_dir / "samples.csv"), "--binding", str(path), "--t", "1.0",
        "--r", "5", "--seed", "1"]))


@FUZZ
@given(ha=st.lists(CELL, max_size=6), hb=st.lists(CELL, max_size=6),
       sep=st.sampled_from([",", " ", "\n"]))
@example(ha=["0"], hb=["0"], sep=",")     # no plug-in rate: zero total gap
@example(ha=["1e-320"], hb=["1"], sep=",")  # the rate overflows to inf
@example(ha=["nan"], hb=["1"], sep=",")   # NaN is not a non-negative time
def test_fuzz_damage_value_files(fuzz_dir, ha, hb, sep):
    for name, cells in (("ha.txt", ha), ("hb.txt", hb)):
        (fuzz_dir / name).write_text(sep.join(cells))
    assert_documented(*run_main([
        "damage", "--ha", str(fuzz_dir / "ha.txt"), "--hb",
        str(fuzz_dir / "hb.txt"), "--t", "3.0", "--r", "20", "--seed", "1"]))


def fresh_process(argv, env=None):
    res = subprocess.run([sys.executable, "-m", "resamplekit.cli", *argv],
                         capture_output=True, text=True,
                         env=None if env is None else {**os.environ, **env})
    return res.returncode, res.stdout, res.stderr


def test_main_calls_in_one_process_equal_fresh_processes(files, capsys,
                                                         monkeypatch):
    """The parser is built once per process; a run after a usage error, or
    under another RESAMPLEKIT_BUDGET, gives what a fresh process gives."""
    estimate = ["estimate", "--spec", str(files["spec"]), "--samples",
                str(files["samples"]), "--t", "1.0", "--r", "50", "--seed", "3"]
    damage = ["damage", "--ha", str(files["ha"]), "--hb", str(files["hb"]),
              "--t", "3.0", "--r", "100", "--seed", "5"]
    usage = ["estimate", "--spec", str(files["spec"]), "--r", "oops"]
    calls = [(estimate, None), (usage, None), (damage, None),
             (estimate, {"RESAMPLEKIT_BUDGET": "5"}), (estimate, None)]
    got = []
    for argv, env in calls:
        with monkeypatch.context() as mp:
            for key, value in (env or {}).items():
                mp.setenv(key, value)
            got.append(invoke(capsys, argv))
    assert [code for code, _, _ in got] == [0, 2, 0, 4, 0]
    assert got[0] == got[-1]
    assert _build_parser() is _build_parser()
    for (argv, env), result in zip(calls, got):
        assert result == fresh_process(argv, env)


RUN_COMMANDS = """
import resamplekit, resamplekit.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert resamplekit.cli.main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""

IMPORT_PROBE = """
import contextlib, io, json, sys
import numpy, scipy.special
# scipy.special may load numpy.fft itself; drop its Python modules (a
# compiled one cannot load twice) so that a later load is the package's own
for name in [m for m in sys.modules if m.split(".")[:2] == ["numpy", "fft"]]:
    if sys.modules[name].__file__.endswith(".py"):
        del sys.modules[name]
vars(numpy).pop("fft", None)
""" + RUN_COMMANDS

BARE_PROBE = """
import contextlib, io, json, sys
""" + RUN_COMMANDS


def loaded_modules(probe, commands) -> list:
    """Every module a fresh interpreter holds after running ``probe`` on
    ``commands``."""
    res = subprocess.run([sys.executable, "-c", probe, json.dumps(commands)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def import_probe(commands) -> list:
    """Modules of scipy.stats, scipy.integrate and numpy.fft that a fresh
    interpreter holds after importing numpy, scipy.special and the package
    and running ``commands``."""
    return [m for m in loaded_modules(IMPORT_PROBE, commands)
            if m.split(".")[:2] in (["scipy", "stats"], ["scipy", "integrate"])
            or m == "numpy.fft"]


def probe_commands(files) -> list:
    """The estimate, damage and coverage commands: none needs more than
    scipy.special's compiled ufuncs."""
    coverage = ["coverage", "--spec", str(files["race"]), "--sizes", "2,2,2",
                "--gamma", "0.8", "--theta", "0.25", "--k", "10", "--r", "16"]
    return [
        ["estimate", "--spec", str(files["spec"]), "--samples",
         str(files["samples"]), "--t", "1.0", "--r", "50", "--seed", "3"],
        ["damage", "--ha", str(files["ha"]), "--hb", str(files["hb"]),
         "--t", "3.0", "--r", "100", "--seed", "5"],
        ["damage-truth", "--lambda", "0.5", "--deg", "triangular:0,2,4",
         "--t", "5.0", "--na", "4"],
        coverage + ["--gen", "exp:3,exp:3,exp:2"],
        coverage + ["--gen", "normal:0,1,normal:0.5,1,normal:1,2"],
        coverage + ["--gen", "normal:0,1,normal:0.5,1,normal:1,2",
                    "--mode", "mc", "--replications", "50", "--seed", "2"],
    ]


def test_commands_load_neither_scipy_stats_nor_integrate(files):
    """Import and the estimate, damage and coverage commands need only
    numpy and scipy.special, and none of them loads numpy.fft."""
    assert import_probe(probe_commands(files)) == []


def test_commands_skip_the_scipy_special_package(files):
    """With nothing imported first, import and the same commands load
    scipy.special's compiled ufuncs but not the package, nor its array-API
    layer and the numpy modules that layer imports."""
    skipped = ("scipy._lib.array_api_compat", "numpy.f2py", "numpy.testing",
               "numpy.fft")
    loaded = loaded_modules(BARE_PROBE, probe_commands(files))
    assert "scipy.special._ufuncs" in loaded
    assert [m for m in loaded if m == "scipy.special"
            or m.startswith(skipped)] == []


def test_import_probe_sees_the_grid_kit_load_numpy_fft():
    """The probe above can see numpy.fft: the grid kit loads it."""
    assert import_probe([["renewal-truth", "--x", "exp:1", "--y", "exp:2",
                          "--m", "2", "--k", "1", "--nx", "4", "--ny", "4",
                          "--r", "10"]]) == ["numpy.fft"]


def test_console_script_subprocess(files, console_script):
    argv = ["resamplekit", "estimate", "--spec", str(files["spec"]),
            "--samples", str(files["samples"]), "--t", "1.0", "--r", "50",
            "--seed", "2"]
    res = subprocess.run(argv, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["subcommand"] == "estimate"
    for entry in ("resamplekit.cli", "resamplekit"):
        module = subprocess.run(
            [sys.executable, "-m", entry] + argv[1:],
            capture_output=True, text=True)
        assert module.returncode == 0, module.stderr
        assert module.stdout == res.stdout
