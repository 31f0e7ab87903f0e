"""Command-line front end.

Subcommands mirror the library surface: ``estimate`` (system estimate plus
exact pair-calculus variance from data), ``damage``/``damage-truth`` (the
damage-accumulation model from data / closed form), ``renewal``/
``renewal-truth`` (two-renewal-process comparison), ``coverage``
(confidence-interval coverage analysis), and ``repro`` (pinned-seed table
reproductions).  Reports go to stdout as JSON (default, full precision) or
as csv/plain tables (6 significant digits); every Monte-Carlo figure
carries its standard error.  Errors are machine-readable JSON on stderr
with distinct exit codes: 2 schema violation, 3 input file not found or
not readable, 4 enumeration budget exceeded, 5 infeasible layout.

Seeds are mandatory for stochastic subcommands; ``repro`` pins its own.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dists
from .budget import BudgetExceededError, enumeration_budget
from .coverage import OrderFunctional, coverage_R, protocol_table
from .damage import (DamageData, DamageTruth, _check_i_max, damage_variance_mc,
                     estimator_expectation, hybrid_pmf, plugin_estimate,
                     plugin_expectation, plugin_variance_mc, poisson_truth,
                     resample_damage_counts)
from .renewal import (GridConvolutionKit, NormalConvolutionKit, RenewalPair,
                      RenewalLayout, estimate_exceedance, exceedance_variance)
from .resampling import estimate_theta
from .pairs import resampling_variance
from .samples import InfeasibleLayoutError, LayoutError, SampleSet
from .systems import SystemSyntaxError, SystemValidationError, parse_system

__all__ = ["RunConfig", "run", "main"]

EXIT_SCHEMA = 2
EXIT_NOT_FOUND = 3
EXIT_BUDGET = 4
EXIT_INFEASIBLE = 5


class CliError(Exception):
    """Carries the machine-readable error envelope."""

    def __init__(self, code: str, exit_code: int, message: str,
                 detail: dict | None = None):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code
        self.detail = detail or {}


@dataclass(frozen=True)
class RunConfig:
    """A parsed invocation: subcommand plus its options."""

    subcommand: str
    options: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.options[name]
        except KeyError:
            raise AttributeError(name) from None


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of printing usage + sys.exit."""

    def error(self, message):
        raise CliError("schema-violation", EXIT_SCHEMA, message)


# -- input helpers --------------------------------------------------------

def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:  # missing, a directory, no permission
        raise CliError("file-not-found", EXIT_NOT_FOUND,
                       f"cannot read {path}: {exc.strerror}",
                       {"path": path}) from None


def _read_values(path: str) -> np.ndarray:
    """A data file: floats separated by whitespace, commas or newlines."""
    text = _read_text(path)
    tokens = text.replace(",", " ").split()
    try:
        values = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise CliError("schema-violation", EXIT_SCHEMA,
                       f"{path}: {exc}", {"path": path}) from None
    if values.size == 0:
        raise CliError("schema-violation", EXIT_SCHEMA,
                       f"{path}: no values", {"path": path})
    return values


def _read_samples(path: str, binding_path: str | None) -> SampleSet:
    binding = None
    if binding_path is not None:
        try:
            binding = json.loads(_read_text(binding_path))
        except json.JSONDecodeError as exc:
            raise CliError("schema-violation", EXIT_SCHEMA,
                           f"{binding_path}: {exc}") from None
    try:
        return SampleSet.from_csv(path, blocks=binding)
    except OSError as exc:  # missing, a directory, no permission
        raise CliError("file-not-found", EXIT_NOT_FOUND,
                       f"cannot read {path}: {exc.strerror}",
                       {"path": path}) from None


def _parse_dist_list(text: str) -> list[dists.KnownDistribution]:
    """Comma-separated specs; bare numbers continue the previous spec.

    ``normal:2,1,exp:3`` splits into ``normal:2,1`` and ``exp:3``.
    """
    items: list[str] = []
    for token in text.split(","):
        if ":" in token or not items:
            items.append(token)
        else:
            items[-1] += "," + token
    return [dists.parse_distribution(item) for item in items]


def _parse_int_list(text: str, what: str) -> list[int]:
    """``"0..3"`` (inclusive range), ``"1,2,5"`` or a single integer."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty range {text}")
            return list(range(lo, hi + 1))
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise CliError("schema-violation", EXIT_SCHEMA,
                       f"bad {what}: {exc}") from None


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise CliError("schema-violation", EXIT_SCHEMA,
                       f"bad {what}: {exc}") from None


# -- output helpers -------------------------------------------------------

def _sig6(x) -> str:
    if isinstance(x, float):
        return format(x, ".6g")
    return "" if x is None else str(x)


def _non_finite_field(obj, path: str) -> tuple[str, float] | None:
    """Path and value of the first non-finite number in a report."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        items = ((f"{path}.{k}", v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for sub, value in items:
        found = _non_finite_field(value, sub)
        if found is not None:
            return found
    return None


def _refuse_non_finite(report: dict) -> None:
    """Raise the schema violation that names the report's first non-finite
    number, if it holds one."""
    found = _non_finite_field(report, "report")
    if found is not None:
        field, value = found
        raise CliError("schema-violation", EXIT_SCHEMA,
                       f"{field} is {value}, not a finite number",
                       {"field": field})


def _emit(report: dict, table: tuple[list[str], list[list]], fmt: str,
          out) -> None:
    """Write the report, or refuse one that holds a non-finite number
    (strict JSON has no token for it) before writing anything.  JSON is
    encoded first and the report walked only when the encoder refuses."""
    if fmt == "json":
        try:
            text = json.dumps(report, sort_keys=True, indent=2,
                              allow_nan=False)
        except ValueError:
            _refuse_non_finite(report)
            raise
        out.write(text)
        out.write("\n")
        return
    _refuse_non_finite(report)
    header, rows = table
    cells = [header] + [[_sig6(c) for c in row] for row in rows]
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerows(cells)
        return
    widths = [max(len(row[j]) for row in cells) for j in range(len(header))]
    for row in cells:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        out.write("\n")


def _np_list(arr) -> list:
    return [float(x) for x in np.asarray(arr).ravel()]


# -- subcommand bodies ----------------------------------------------------

def _cmd_estimate(cfg: RunConfig, out) -> None:
    text = _read_text(cfg.spec)
    params = {"t": cfg.t} if cfg.t is not None else None
    try:
        spec = parse_system(text, params=params)
    except (SystemSyntaxError, SystemValidationError) as exc:
        raise CliError("schema-violation", EXIT_SCHEMA,
                       f"{cfg.spec}: {exc}") from None
    samples = _read_samples(cfg.samples, cfg.binding)
    est = estimate_theta(spec, samples, cfg.r, cfg.seed)
    var = resampling_variance(spec, samples, cfg.r, family=cfg.family,
                              budget=cfg.budget)
    report = {
        "subcommand": "estimate",
        "estimate": est.estimate,
        "estimate_se": est.standard_error,
        "empirical_variance": est.empirical_variance,
        "exact_variance": var.to_dict(),
        "r": cfg.r,
        "seed": cfg.seed,
        "sizes": list(samples.sizes),
    }
    rows = [
        ["estimate", est.estimate, est.standard_error],
        ["empirical_variance", est.empirical_variance, None],
        ["exact_variance", var.variance, var.variance_se or None],
    ]
    _emit(report, (["quantity", "value", "se"], rows), cfg.format, out)


def _cmd_damage(cfg: RunConfig, out) -> None:
    try:
        data = DamageData(_read_values(cfg.ha), _read_values(cfg.hb))
    except ValueError as exc:
        raise CliError("infeasible-layout", EXIT_INFEASIBLE, str(exc)) from None
    plug = plugin_estimate(data, cfg.t)  # t and i_max before any draw
    i_max = _check_i_max(cfg.imax if cfg.imax is not None else data.n_a + 5,
                         data.n_a)
    counts = resample_damage_counts(data, cfg.t, cfg.r, cfg.seed)
    hybrid = hybrid_pmf(counts, plug, i_max)
    diagnostics = dict(counts.diagnostics)
    if not diagnostics["pairs_inspected"]:
        # r = 1 draws no realization pair, so the pair means are undefined
        diagnostics.update(duration_overlap_mean=None,
                           arrival_fixed_points_mean=None)
    report = {
        "subcommand": "damage",
        "t": cfg.t, "r": cfg.r, "seed": cfg.seed,
        "n_a": data.n_a, "n_b": data.n_b,
        "active_mean": counts.active_mean,
        "active_se": counts.active_se,
        "terminal_mean": counts.terminal_mean,
        "terminal_se": counts.terminal_se,
        "active_pmf": _np_list(counts.active_pmf),
        "terminal_pmf": _np_list(counts.terminal_pmf),
        "plugin": {
            "rate": plug.rate,
            "active_mean": plug.active_mean,
            "terminal_mean": plug.terminal_mean,
        },
        "hybrid_pmf": _np_list(hybrid),
        "diagnostics": diagnostics,
    }
    rows = [["active_mean", counts.active_mean, counts.active_se],
            ["terminal_mean", counts.terminal_mean, counts.terminal_se],
            ["plugin_active_mean", plug.active_mean, None]]
    rows += [[f"active_pmf[{i}]", p, None]
             for i, p in enumerate(counts.active_pmf)]
    rows += [[f"hybrid_pmf[{i}]", p, None] for i, p in enumerate(hybrid)]
    _emit(report, (["quantity", "value", "se"], rows), cfg.format, out)


def _cmd_damage_truth(cfg: RunConfig, out) -> None:
    deg = dists.parse_distribution(cfg.deg)
    truth = DamageTruth(rate=cfg.rate, degradation=deg)
    summ = poisson_truth(truth, cfg.t)
    i_max = _check_i_max(cfg.imax, 0) if cfg.imax is not None else 8
    idx = np.arange(i_max + 1)
    report = {
        "subcommand": "damage-truth",
        "t": cfg.t, "rate": cfg.rate, "degradation": repr(deg),
        "active_mean": summ.active_mean,
        "terminal_mean": summ.terminal_mean,
        "active_pmf": _np_list(summ.active_pmf(idx)),
        "terminal_pmf": _np_list(summ.terminal_pmf(idx)),
    }
    rows = [["active_mean", summ.active_mean],
            ["terminal_mean", summ.terminal_mean]]
    rows += [[f"active_pmf[{i}]", p]
             for i, p in zip(idx, summ.active_pmf(idx))]
    if cfg.na is not None:
        ee = estimator_expectation(truth, cfg.na, cfg.t)
        report["estimator_expectation"] = {
            "n_a": cfg.na,
            "active_mean": ee.active_mean,
            "active_pmf": _np_list(ee.active_pmf),
            "p1": ee.p1,
        }
        rows.append([f"estimator_mean[n_a={cfg.na}]", ee.active_mean])
    _emit(report, (["quantity", "value"], rows), cfg.format, out)


def _cmd_renewal(cfg: RunConfig, out) -> None:
    pair = RenewalPair.for_threshold(_read_values(cfg.hx),
                                     _read_values(cfg.hy), cfg.m, cfg.k)
    est = estimate_exceedance(pair, cfg.r, cfg.seed)
    report = {
        "subcommand": "renewal",
        "m_x": pair.m_x, "m_y": pair.m_y, "threshold": cfg.k,
        "n_x": len(pair.h_x), "n_y": len(pair.h_y),
        "r": cfg.r, "seed": cfg.seed,
        "estimate": est.estimate,
        "estimate_se": est.standard_error,
        "empirical_variance": est.empirical_variance,
    }
    rows = [["estimate", est.estimate, est.standard_error],
            ["empirical_variance", est.empirical_variance, None]]
    _emit(report, (["quantity", "value", "se"], rows), cfg.format, out)


def _cmd_renewal_truth(cfg: RunConfig, out) -> None:
    x = dists.parse_distribution(cfg.x)
    y = dists.parse_distribution(cfg.y)
    ks = _parse_int_list(cfg.k, "K range")
    entries = []
    rows = []
    for k in ks:
        m_y = cfg.m - k
        if not 0 <= m_y <= cfg.m:
            raise CliError("schema-violation", EXIT_SCHEMA,
                           f"threshold K={k} outside 0..m={cfg.m}")
        lay = RenewalLayout(cfg.nx, cfg.m, cfg.ny, m_y)
        if x.family == "normal" and y.family == "normal":
            kit = NormalConvolutionKit(*x.params, *y.params, cfg.m, m_y)
        else:
            kit = GridConvolutionKit(x, y, cfg.m, m_y)
        rep = exceedance_variance(lay, kit, cfg.r)
        limit = rep.mu11 - rep.mu ** 2
        entries.append({
            "threshold": k, "m_y": m_y, "theta": rep.mu,
            "variance": rep.variance, "variance_limit": limit,
            "mu11": rep.mu11,
        })
        rows.append([k, m_y, rep.mu, rep.variance, limit])
    report = {
        "subcommand": "renewal-truth",
        "x": repr(x), "y": repr(y),
        "m": cfg.m, "n_x": cfg.nx, "n_y": cfg.ny, "r": cfg.r,
        "rows": entries,
    }
    _emit(report, (["K", "m_y", "theta", "variance", "variance_limit"], rows),
          cfg.format, out)


def _cmd_coverage(cfg: RunConfig, out) -> None:
    text = _read_text(cfg.spec)
    try:
        func = OrderFunctional(parse_system(text))
    except (SystemSyntaxError, SystemValidationError, ValueError) as exc:
        raise CliError("schema-violation", EXIT_SCHEMA,
                       f"{cfg.spec}: {exc}") from None
    gens = _parse_dist_list(cfg.gen)
    sizes = _parse_int_list(cfg.sizes, "sizes")
    gammas = _parse_float_list(cfg.gamma, "gamma")
    if cfg.mode == "mc" and cfg.seed is None:
        raise CliError("schema-violation", EXIT_SCHEMA,
                       "--seed is mandatory for mc mode")
    if cfg.mode == "mc" and cfg.protocol_csv:
        raise CliError("schema-violation", EXIT_SCHEMA,
                       "--protocol-csv needs exact mode")
    # resolved here: mc mode checks no budget, so a bad one would pass
    budget = enumeration_budget(cfg.budget)
    rep = coverage_R(func, gens, sizes, cfg.theta, gammas, cfg.k, cfg.r,
                     mode=cfg.mode, seed=cfg.seed,
                     replications=cfg.replications, budget=budget)
    # the per-W table is enumerated only when asked for, before any output
    table = protocol_table(func, gens, sizes, cfg.theta, gammas, cfg.k,
                           cfg.r, budget=budget) if cfg.protocol_csv else None
    report = {"subcommand": "coverage", **rep.to_dict()}
    rows = [[g, c, (rep.se[i] if rep.se else None)]
            for i, (g, c) in enumerate(zip(rep.gammas, rep.coverage))]
    _emit(report, (["gamma", "coverage", "se"], rows), cfg.format, out)
    if table is not None:
        with open(cfg.protocol_csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["w", "probability", "q", "rho"]
                            + [f"coverage[{g}]" for g in rep.gammas])
            for row in table:
                writer.writerow(["".join(map(str, row.w)), row.probability,
                                 row.q, row.rho] + list(row.coverage))


# -- pinned table reproductions -------------------------------------------

_REPRO_SEED = 20090

_COVERAGE_SIZES = ((3, 3, 3), (9, 9, 3), (4, 4, 4), (6, 6, 4), (5, 5, 5),
                   (3, 3, 8), (4, 4, 7))
_COVERAGE_GAMMAS = (0.5, 0.6, 0.7, 0.8, 0.9)


def _cmd_repro_coverage(cfg: RunConfig, out) -> None:
    func = OrderFunctional(parse_system("cmp(x3 < min(x1,x2))"))
    gens = (dists.exponential(3), dists.exponential(3), dists.exponential(2))
    entries = []
    rows = []
    for sizes in _COVERAGE_SIZES:
        rep = coverage_R(func, gens, sizes, theta=0.25,
                         gamma=_COVERAGE_GAMMAS, k=10, r=16, mode="mc",
                         seed=_REPRO_SEED, replications=10_000)
        exact = coverage_R(func, gens, sizes, theta=0.25,
                           gamma=_COVERAGE_GAMMAS, k=10, r=16).coverage
        entries.append({"sizes": list(sizes),
                        "coverage": list(rep.coverage),
                        "se": list(rep.se), "exact": list(exact)})
        rows.append(["(" + ",".join(map(str, sizes)) + ")"]
                    + [x for cells in zip(rep.coverage, rep.se, exact)
                       for x in cells])
    header = ["sizes"]
    for g in _COVERAGE_GAMMAS:
        header += [f"R[{g}]", f"se[{g}]", f"exact[{g}]"]
    report = {
        "subcommand": "repro", "table": "coverage",
        "theta": 0.25, "k": 10, "r": 16,
        "gammas": list(_COVERAGE_GAMMAS),
        "replications": 10_000, "seed": _REPRO_SEED,
        "generators": ["exponential:3", "exponential:3", "exponential:2"],
        "rows": entries,
    }
    _emit(report, (header, rows), cfg.format, out)


def _cmd_repro_damage(cfg: RunConfig, out) -> None:
    truth = DamageTruth(rate=0.5, degradation=dists.triangular(0, 2, 4))
    t, r, reps = 5.0, 100, 2000
    entries = []
    rows = []
    for n_a in range(3, 9):
        res = damage_variance_mc(truth, n_a, n_a, t, r, reps, _REPRO_SEED)
        plug = plugin_variance_mc(truth, n_a, n_a, t, reps, _REPRO_SEED)
        capped = estimator_expectation(truth, n_a, t)
        entries.append({
            "n_a": n_a,
            "resampling": {
                "mean": res.estimate_mean, "mean_se": res.mean_se,
                "var": res.estimate_var, "mse": res.estimate_mse,
            },
            "plugin": {
                "mean": plug.estimate_mean, "mean_se": plug.mean_se,
                "var": plug.estimate_var, "mse": plug.estimate_mse,
                "exact_mean": plugin_expectation(truth, n_a, t),
            },
            "capped_expectation": capped.active_mean,
        })
        rows.append([n_a, res.estimate_mean, res.mean_se, res.estimate_var,
                     res.estimate_mse, plug.estimate_mean, plug.mean_se,
                     plug.estimate_var, plug.estimate_mse])
    report = {
        "subcommand": "repro", "table": "damage",
        "t": t, "r": r, "replications": reps, "seed": _REPRO_SEED,
        "rate": 0.5, "degradation": "triangular:0,2,4",
        "truth_active_mean": poisson_truth(truth, t).active_mean,
        "rows": entries,
    }
    header = ["n_a", "E*", "se", "Var*", "MSE*",
              "E_plug", "se", "Var_plug", "MSE_plug"]
    _emit(report, (header, rows), cfg.format, out)


# -- wiring ---------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and the budget default is read when a command runs."""
    parser = _Parser(prog="resamplekit",
                     description="Resampling-based reliability estimation.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def budget(p, counts=""):
        p.add_argument("--budget", type=int, default=None,
                       help=f"enumeration budget override{counts} "
                            "(else RESAMPLEKIT_BUDGET)")

    def common(p, seed_required=True):
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="json")
        if seed_required is not None:
            p.add_argument("--seed", type=int, required=seed_required)

    p = sub.add_parser("estimate", help="system estimate from sample data")
    p.add_argument("--spec", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--binding", default=None,
                   help="JSON {argument-index: sample-name}")
    p.add_argument("--t", type=float, default=None,
                   help="value bound to the parameter 't' in the system expression")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--family", choices=("auto", "omega", "alpha"),
                   default="auto")
    budget(p)
    common(p)

    p = sub.add_parser("damage", help="damage counts from data")
    p.add_argument("--ha", required=True)
    p.add_argument("--hb", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--imax", type=int, default=None)
    common(p)

    p = sub.add_parser("damage-truth", help="closed-form damage model")
    p.add_argument("--lambda", dest="rate", type=float, required=True)
    p.add_argument("--deg", required=True, help="e.g. triangular:0,2,4")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--na", type=int, default=None,
                   help="also report the capped estimator expectation")
    p.add_argument("--imax", type=int, default=None)
    common(p, seed_required=None)

    p = sub.add_parser("renewal", help="renewal comparison from data")
    p.add_argument("--hx", required=True)
    p.add_argument("--hy", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="failure threshold K")
    p.add_argument("--r", type=int, required=True)
    common(p)

    p = sub.add_parser("renewal-truth", help="closed-form renewal comparison")
    p.add_argument("--x", required=True, help="e.g. normal:2,1")
    p.add_argument("--y", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", required=True, help="K or K1..K2 or list")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    common(p, seed_required=None)

    p = sub.add_parser("coverage", help="interval coverage analysis")
    p.add_argument("--spec", required=True)
    p.add_argument("--gen", required=True, help="e.g. exp:3,exp:3,exp:2")
    p.add_argument("--sizes", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--replications", type=int, default=10_000)
    p.add_argument("--protocol-csv", dest="protocol_csv", default=None,
                   help="also write the per-W table (exact mode)")
    budget(p, ": exact-coverage DP states, and W rows for --protocol-csv")
    common(p, seed_required=False)

    p = sub.add_parser("repro", help="pinned-seed table reproduction")
    p.add_argument("table", choices=("table-coverage", "table-damage"))
    common(p, seed_required=None)
    return parser


_BODIES = {
    "estimate": _cmd_estimate,
    "damage": _cmd_damage,
    "damage-truth": _cmd_damage_truth,
    "renewal": _cmd_renewal,
    "renewal-truth": _cmd_renewal_truth,
    "coverage": _cmd_coverage,
}


def run(config: RunConfig, out=None) -> int:
    """Execute a parsed invocation; returns the exit status."""
    out = out if out is not None else sys.stdout
    if config.subcommand == "repro":
        body = _cmd_repro_coverage if config.table == "table-coverage" \
            else _cmd_repro_damage
    else:
        body = _BODIES[config.subcommand]
    try:
        # overflow shows as a non-finite report field, which _emit refuses
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            body(config, out)
        return 0
    except CliError as exc:
        _write_error(exc.code, exc.exit_code, str(exc), exc.detail)
        return exc.exit_code
    except BudgetExceededError as exc:
        _write_error("budget-exceeded", EXIT_BUDGET, str(exc),
                     {"needed": exc.needed, "budget": exc.budget})
        return EXIT_BUDGET
    except InfeasibleLayoutError as exc:
        _write_error("infeasible-layout", EXIT_INFEASIBLE, str(exc))
        return EXIT_INFEASIBLE
    except (LayoutError, ValueError) as exc:
        _write_error("schema-violation", EXIT_SCHEMA, str(exc))
        return EXIT_SCHEMA


def _write_error(code: str, exit_code: int, message: str,
                 detail: dict | None = None) -> None:
    envelope = {"error": {"code": code, "exit": exit_code,
                          "message": message}}
    if detail:
        envelope["error"]["detail"] = detail
    json.dump(envelope, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except CliError as exc:
        _write_error(exc.code, exc.exit_code, str(exc), exc.detail)
        return exc.exit_code
    options = vars(ns)
    config = RunConfig(subcommand=options.pop("subcommand"), options=options)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
