"""Estimation when some argument distributions are known.

Arguments split into a resampled part X (data samples) and a known part Z
(distributions given in closed form).  Three estimators:

* :func:`estimate_known_g` -- the conditional expectation
  g(x) = E[phi(x, Z)] is available in closed form; resample X and average g.
* :func:`estimate_inner_mc` -- g is not available; for each X resample draw
  N fresh Z vectors and average phi over them (inner Monte Carlo).
* :func:`wave_estimate_vector_samples` -- hierarchical variant: the cascade
  of :mod:`wave` with node samples of N-vectors, Z draws refreshed
  elementwise at every level; the estimate averages the root sample across
  both elements and vector slots.

By convention a system with known parts takes m + v arguments: positions
1..m bind to the data samples, positions m+1..m+v to the distributions in
order.

For the worked three-branch system
``ind(min(max(x1,x4), min(x2,x5), sum(x3,x6)) < t)`` (x4..x6 known),
:func:`three_branch_conditional` builds the exact g:

    g(x) = 1 - A * B * C,   A = 1 if x1 > t else P{Z1 > t},
                            B = 0 if x2 <= t else P{Z2 > t},
                            C = P{Z3 > t - x3}.

The system is below t unless every branch exceeds t; the branch terms are
the survival probabilities of max(x1,Z1), min(x2,Z2) and x3+Z3 at t.
"""

from __future__ import annotations

import numpy as np

from ._streams import BLOCK, Lane, _count, block_streams
from .resampling import EstimateResult, draw_values
from .samples import SampleSet
from .systems import SystemSpec, evaluate_batch, parse_system
from .wave import _Cascade, _require_singleton

__all__ = [
    "estimate_known_g", "estimate_inner_mc", "wave_estimate_vector_samples",
    "three_branch_system", "three_branch_conditional",
]

_ROWS_CHUNK = 1 << 19


def estimate_known_g(g, samples: SampleSet, r: int, seed: int,
                     vectorized: bool = False,
                     keep_values: bool = False) -> EstimateResult:
    """Average a closed-form conditional expectation over X resamples.

    Parameters
    ----------
    g : callable
        Maps an argument vector (length m) to E[phi(x, Z)].  With
        ``vectorized=True`` it receives an (n, m) matrix and must return
        (n,) values; any other shape raises ValueError.
    r : int
        An integer, not a bool (TypeError), of at least 1 (ValueError).
    """
    r = _count(r, "r")
    values = np.empty(r, dtype=float)
    for start, stop, rng in block_streams(r, seed, Lane.KNOWN_G):
        # g is the caller's: hand it rows in C order, as it always got them
        X = np.ascontiguousarray(draw_values(samples, stop - start, rng).T)
        if vectorized:
            out = np.asarray(g(X), dtype=float)
            if out.shape != (len(X),):
                raise ValueError(
                    "a vectorized g must return one value per row: got "
                    f"shape {out.shape} for {len(X)} rows")
            values[start:stop] = out
        else:
            values[start:stop] = [float(g(row)) for row in X]
    return EstimateResult.from_values(values, seed, keep_values)


def _split_args(spec: SystemSpec, samples: SampleSet, z_dists):
    m = samples.m
    nu = len(z_dists)
    if spec.m != m + nu:
        raise ValueError(
            f"system takes {spec.m} arguments; samples bind {m} and "
            f"{nu} known distributions were given (need m + v = {spec.m})")
    return m, nu


def estimate_inner_mc(spec: SystemSpec, samples: SampleSet, z_dists,
                      N: int, r: int, seed: int,
                      keep_values: bool = False) -> EstimateResult:
    """Resample X; average phi over N fresh Z draws per realization.

    Realization q's value is (1/N) sum_i phi(X^q, Z^{q,i}); the estimate
    averages the r realizations.  ``N`` and ``r`` are checked as
    :func:`estimate_known_g` checks r.
    """
    z_dists = list(z_dists)
    m, nu = _split_args(spec, samples, z_dists)
    N, r = _count(N, "N"), _count(r, "r")
    values = np.empty(r, dtype=float)
    rows_per = max(1, _ROWS_CHUNK // N)
    # one argument-major array for the call, so each argument reaches the
    # evaluator as a contiguous column; each chunk fills a leading slice
    buffer = np.empty((m + nu, min(rows_per, r, BLOCK), N), dtype=float)
    for start, stop, rng in block_streams(r, seed, Lane.INNER_MC):
        X = draw_values(samples, stop - start, rng)
        for lo in range(0, stop - start, rows_per):
            hi = min(lo + rows_per, stop - start)
            rows = hi - lo
            full = buffer[:, :rows]
            full[:m] = X[:, lo:hi, None]
            for z, d in enumerate(z_dists):
                full[m + z] = d.sample(rng, (rows, N))
            vals = evaluate_batch(spec, full.reshape(m + nu, rows * N).T)
            values[start + lo:start + hi] = vals.reshape(rows, N).mean(axis=1)
    return EstimateResult.from_values(values, seed, keep_values)


def wave_estimate_vector_samples(spec: SystemSpec, samples: SampleSet, z_dists,
                                 N: int, sizes: dict, seed: int,
                                 keep_values: bool = False) -> EstimateResult:
    """Hierarchical cascade whose node samples hold N-vectors.

    An element of an internal node's sample is an N-vector: slot i combines
    slot i of one picked element per child, with Z arguments redrawn fresh
    for every element and slot.  The estimate averages the root sample over
    elements and slots; ``empirical_variance`` is the spread of the
    per-element slot means.

    ``sizes`` maps internal node ids to n_v (root included), each a
    positive integer.  Data-backed leaves use their sample sizes; Z leaves
    have no sample.  ``N`` is checked as by :func:`estimate_inner_mc`.
    This is the cascade of :func:`wave.wave_estimate` with N slots: a node
    whose subtree holds no Z argument and whose size is the product of its
    children's sizes enumerates every child combination, as it does there.
    """
    z_dists = list(z_dists)
    _split_args(spec, samples, z_dists)
    _require_singleton(samples)
    N = _count(N, "N")
    _, root = _Cascade(spec, samples, sizes, seed, Lane.VECTOR_WAVE, z_dists,
                       (N,)).run()
    per_element = root.mean(axis=1)
    var = float(np.var(per_element, ddof=1)) if len(per_element) > 1 else 0.0
    return EstimateResult(estimate=float(root.mean()),
                          realizations=root.shape[0], seed=seed,
                          empirical_variance=var,
                          values=per_element if keep_values else None)


# -- worked three-branch example ------------------------------------------

def three_branch_system(t: float) -> SystemSpec:
    """``ind(min(max(x1,x4), min(x2,x5), sum(x3,x6)) < t)``: x1..x3 data,
    x4..x6 known."""
    return parse_system("ind(min(max(x1,x4),min(x2,x5),sum(x3,x6)) < t)",
                        params={"t": t})


def three_branch_conditional(t: float, z_dists):
    """Exact conditional expectation of the three-branch indicator given x.

    ``z_dists`` are the distributions of x4, x5, x6.  Returns a vectorized
    callable usable with ``estimate_known_g(..., vectorized=True)``.
    """
    z1, z2, z3 = z_dists
    s1 = float(z1.sf(t))
    s2 = float(z2.sf(t))

    def g(X):
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        a = np.where(X[:, 0] > t, 1.0, s1)
        b = np.where(X[:, 1] <= t, 0.0, s2)
        c = np.asarray(z3.sf(t - X[:, 2]), dtype=float)
        out = 1.0 - a * b * c
        return float(out[0]) if single else out

    return g
