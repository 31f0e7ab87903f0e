"""Damage accumulation: arrivals that degrade for a random duration.

Damage events arrive as a Poisson stream (rate lambda); each event degrades
the unit for an independent duration with distribution F.  At time t,

    E X_t = lambda * int_0^t (1 - F(x)) dx     (active damage count)
    E Y_t = lambda * int_0^t F(x) dx           (terminal, duration elapsed)

and both counts are Poisson distributed (:func:`poisson_truth`).

With only data -- inter-arrival times H_A (n_A values) and durations H_B
(n_B values) -- :func:`resample_damage_counts` re-enacts the process: a
random permutation of all of H_A gives arrival epochs as partial sums, n_A
durations are drawn from H_B without replacement, and the counts are read
off.  Gaps are >= 0, so epochs never decrease, and an end tau + duration
<= t needs tau <= t: a realization's counts are fixed once its epoch has
passed t.  The re-enactment therefore reads the arrival order and the
durations one position at a time (:func:`_streams.joined_prefix`) and
stops reading a realization once its epoch is past t, so its cost grows
with the arrivals before t rather than with n_A.  The generator gives the
draws of the whole permutation and duration draw, each epoch and end is
the same sum in the same order as on whole realization matrices, and the
first-pair diagnostics read the first two realizations' whole outcomes, so
every count, pmf, mean and diagnostic keeps its bytes.  The resampled
arrival count can never exceed n_A, so the estimator's
expectation is a tail-capped version of the truth; :func:`estimator_expectation`
evaluates the capped formulas

    E E*X_t  = p1 [ sum_{j<=n_A} j d(j) + n_A P{J > n_A} ],
    E P*_X(i) = sum_{j=i}^{n_A} d(j) C(j,i) p1^i (1-p1)^(j-i)
              + C(n_A,i) p1^i (1-p1)^(n_A-i) P{J > n_A},

with J ~ Poisson(lambda t), d its pmf and p1 = E X_t / (lambda t) the
chance that an arrival uniform on (0, t) is still active at t.  These treat
the first n_A epochs as exchangeable uniforms even when more than n_A
arrivals fit before t, so they are close but not exact for small n_A (0.835
against a simulated 0.69-0.70 at n_A = 3 in the README's setting).  No exact
small-n_A expectation is computed or tested yet; ROADMAP item 5 describes
one (arrival j of the resampled process is Gamma(j, lambda)).

:func:`damage_variance_mc` measures the estimator's variance/bias/MSE over
fresh data replications, and :func:`plugin_estimate` / :func:`hybrid_pmf`
give the parametric plug-in baseline and the spliced pmf that uses
resampling up to i = n_A and the plug-in tail beyond.

The replication studies (:func:`damage_variance_mc`,
:func:`plugin_variance_mc`) take from each replication's generators only
its draws, in the order of a one-replication loop: the data, the inner
seed and the integers of its without-replacement draws.  The rest -- the
outcome mapping, partial sums, counts, means, the first-pair diagnostics
and the plug-in fit -- runs over a chunk of replications at once.  One
prefix walk (:func:`_walk`) counts for :func:`resample_damage_counts` and
the study alike, over up to BLOCK // r datasets joined when r <=
:data:`BLOCK` (:func:`_streams.joined_prefix` raises each dataset's
indices to its own data row), and sums each replication's counts, so each
report equals the per-replication loop's byte for byte.  The truth
integral int_0^t (1 - F) is cached per (law, t).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._streams import (BLOCK, DistinctPrefix, Lane, _code_draws, _count,
                       _table_size, block_count, block_ranges, joined_prefix,
                       substreams)
from .distributions import (KnownDistribution, binom_pmf, poisson_pmf,
                            poisson_sf)

__all__ = [
    "DamageData", "DamageTruth", "CountEstimates", "TruthSummary",
    "EstimatorExpectation", "DamageMCReport", "PluginMCReport",
    "resample_damage_counts", "poisson_truth", "estimator_expectation",
    "damage_variance_mc", "plugin_estimate", "plugin_expectation",
    "plugin_variance_mc", "hybrid_pmf",
]


@dataclass(frozen=True, eq=False)
class DamageData:
    """Observed inter-arrival times (H_A) and degradation durations (H_B)."""

    h_a: np.ndarray
    h_b: np.ndarray

    def __post_init__(self):
        # own read-only copies
        a = np.array(self.h_a, dtype=float)
        b = np.array(self.h_b, dtype=float)
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("h_a and h_b must be non-empty 1-d arrays")
        _check_data(a, b)
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "h_a", a)
        object.__setattr__(self, "h_b", b)

    @property
    def n_a(self) -> int:
        return len(self.h_a)

    @property
    def n_b(self) -> int:
        return len(self.h_b)


def _check_data(h_a: np.ndarray, h_b: np.ndarray) -> None:
    """:class:`DamageData`'s checks on H_A and H_B, or on stacks of them,
    one dataset per row."""
    if h_a.shape[-1] == 0 or h_b.shape[-1] == 0:
        raise ValueError("h_a and h_b must be non-empty 1-d arrays")
    if not ((h_a >= 0).all() and (h_b >= 0).all()):  # NaN fails too
        raise ValueError("times and durations must be non-negative")
    if h_a.shape[-1] > h_b.shape[-1]:
        raise ValueError(
            f"need n_A <= n_B to draw {h_a.shape[-1]} durations without "
            f"replacement from {h_b.shape[-1]}")


@dataclass(frozen=True)
class DamageTruth:
    """Generating model: Poisson arrivals plus a known duration distribution."""

    rate: float
    degradation: KnownDistribution

    def __post_init__(self):
        # so that fresh data always passes DamageData's checks
        if not 0 < self.rate < math.inf:
            raise ValueError(
                f"arrival rate must be positive and finite, got {self.rate}")
        lo, _ = self.degradation.support()
        if not lo >= 0:
            raise ValueError("degradation durations must be non-negative")


@dataclass(frozen=True, eq=False)
class CountEstimates:
    """Resampling estimates of the damage-count law at time t."""

    t: float
    r: int
    seed: int
    active_mean: float
    terminal_mean: float
    active_pmf: np.ndarray    # index i = P*{X_t = i}, i = 0..n_A
    terminal_pmf: np.ndarray
    diagnostics: dict

    @property
    def n_a(self) -> int:
        return len(self.active_pmf) - 1

    def _se(self, pmf, mean: float) -> float:
        counts = np.arange(len(pmf))
        second = float(np.dot(pmf, counts ** 2))
        return math.sqrt(max(second - mean ** 2, 0.0) / self.r)

    @property
    def active_se(self) -> float:
        """SE of the active mean, from the realization spread."""
        return self._se(self.active_pmf, self.active_mean)

    @property
    def terminal_se(self) -> float:
        return self._se(self.terminal_pmf, self.terminal_mean)


def resample_damage_counts(data: DamageData, t: float, r: int,
                           seed: int) -> CountEstimates:
    """Estimate the damage-count law by re-enacting the process r times.

    Each realization permutes all of H_A into arrival epochs (partial sums)
    and attaches durations drawn from H_B without replacement; the active
    count is the number of epochs tau <= t < tau + duration, the terminal
    count the number with tau + duration <= t.  ``r`` must be an integer,
    not a bool (TypeError), of at least 1 (ValueError).
    """
    r = _count(r, "r")
    if not t >= 0:
        raise ValueError(f"time t must be non-negative, got {t}")
    active = np.empty(r, dtype=np.intp)
    terminal = np.empty(r, dtype=np.intp)
    _, overlap, fixed, pairs = _walk(
        data.h_a[None], data.h_b[None], t, r,
        substreams(seed, Lane.DAMAGE_RESAMPLE, np.arange(block_count(r))),
        (active, terminal))
    active_pmf = np.bincount(active, minlength=data.n_a + 1) / r
    terminal_pmf = np.bincount(terminal, minlength=data.n_a + 1) / r
    diagnostics = {
        "duration_overlap_mean": float(overlap[0]),
        "arrival_fixed_points_mean": float(fixed[0]),
        "pairs_inspected": pairs,
    }
    return CountEstimates(
        t=float(t), r=r, seed=seed,
        active_mean=float(active.mean()),
        terminal_mean=float(terminal.mean()),
        active_pmf=active_pmf, terminal_pmf=terminal_pmf,
        diagnostics=diagnostics)


def _walk(h_a: np.ndarray, h_b: np.ndarray, t: float, r: int, streams,
          counts=None):
    """Count r realizations of each dataset (one per row of the stacked
    H_A and H_B) at time t, in chunks of one block of one dataset when
    r > BLOCK, else of up to BLOCK // r datasets, each read in one prefix
    walk.  Block b of each dataset in turn takes from the next generator
    of ``streams`` the draws of its arrival order, then its durations (one
    rank call for both when both are tabulated with equal outcome counts:
    the same integers).  Returns per dataset the mean active count and the
    :func:`_first_pairs` counts averaged over the blocks with a pair (NaN
    with none), then the number of those blocks; ``counts``, two (r,)
    arrays for one dataset, receive each realization's active and terminal
    counts.
    """
    sets, n_a = h_a.shape
    n_b = h_b.shape[1]
    # two tabulated draws with equal outcome counts take their ranks from
    # one bounded-integer call, the same numbers as one call each
    count = _table_size(n_a, n_a)
    joined = count and count == _table_size(n_b, n_a)
    step = max(1, BLOCK // r)
    # per dataset: summed active counts, overlaps and fixed points
    sums = np.zeros((3, sets), dtype=np.intp)
    pairs = sum(stop - start > 1 for _, start, stop in block_ranges(r))
    for lo in range(0, sets, step):
        hi = min(lo + step, sets)
        for _, start, stop in block_ranges(r):
            rows = stop - start
            perm_parts, which_parts = [], []
            for rng in itertools.islice(streams, hi - lo):
                if joined:
                    ranks = _code_draws(rng, n_a, n_a, 2 * rows)[1]
                    perm_parts.append((count, ranks[:rows]))
                    which_parts.append((count, ranks[rows:]))
                else:
                    perm_parts.append(_code_draws(rng, n_a, n_a, rows))
                    which_parts.append(_code_draws(rng, n_b, n_a, rows))
            perm = joined_prefix(n_a, n_a, perm_parts, n_a)
            which = joined_prefix(n_b, n_a, which_parts, n_b)
            # an epoch or end that overflows to inf is past every finite t
            with np.errstate(over="ignore"):
                active, ended = _prefix_counts(h_a[lo:hi].reshape(-1),
                                               h_b[lo:hi].reshape(-1), t,
                                               perm, which)
            active -= ended
            sums[0, lo:hi] += active.reshape(hi - lo, rows).sum(axis=1)
            if counts is not None:
                counts[0][start:stop], counts[1][start:stop] = active, ended
            if rows > 1:
                sums[1:, lo:hi] += _first_pairs(perm, which, rows)
    return sums[0] / r, *(sums[1:] / (pairs or math.nan)), pairs


def _prefix_counts(h_a: np.ndarray, h_b: np.ndarray, t: float,
                   perm: DistinctPrefix, which: DistinctPrefix):
    """Arrivals and ended degradations at t of a set of realizations.

    ``perm`` and ``which`` give each realization's indices into the flat
    ``h_a`` and ``h_b`` (raised to its dataset's row when several datasets
    are stacked).  Position i adds the gap ``h_a[perm_i]`` into the epoch
    tau (the sequential sums of np.cumsum) and reads the end
    tau + ``h_b[which_i]``.  Returns, per realization, the number of epochs
    tau <= t and the number of ends <= t; the active count is their
    difference.  Gaps are >= 0, so epochs never decrease: once a
    realization's epoch passes t, no later epoch or end (>= its epoch)
    counts.  Such realizations are dropped, and their later positions never
    read, once they are all of those still read, or, while a reader still
    decodes positions, half of them with two positions to go.
    """
    rows = perm.rows
    arrived = np.empty(rows, dtype=np.intp)
    ended = np.empty(rows, dtype=np.intp)
    live = None      # the realizations still read, None while all are
    k = perm.k
    # counts up to k in the smallest type: adds run faster
    small = np.min_scalar_type(k)
    # on decoded outcomes a position read costs no decoding, and dropping
    # some rows costs more than reading them on
    shrink = not (perm.decoded and which.decoded)
    for i in range(k):
        # float adds commute bit for bit: tau + gap, tau + duration
        if i == 0:
            tau = h_a.take(perm.position(i))
        else:
            tau += h_a.take(perm.position(i, live))
        end = h_b.take(which.position(i, live))
        end += tau
        done = end <= t
        inside = tau <= t
        if i == 0:
            n_in, n_done = inside.astype(small), done.astype(small)
        else:
            n_in += inside
            n_done += done
        still = np.count_nonzero(inside)
        if still and (not shrink or 2 * still > len(tau) or i + 2 >= k):
            continue
        out = np.flatnonzero(~inside)
        gone = out if live is None else live.take(out)
        arrived[gone] = n_in.take(out)
        ended[gone] = n_done.take(out)
        if not still:
            return arrived, ended
        keep = np.flatnonzero(inside)
        live = keep if live is None else live.take(keep)
        tau, n_in, n_done = tau.take(keep), n_in.take(keep), n_done.take(keep)
    rest = slice(None) if live is None else live
    arrived[rest] = n_in
    ended[rest] = n_done
    return arrived, ended


def _first_pairs(perm: DistinctPrefix, which: DistinctPrefix, r: int):
    """Per dataset of ``r`` >= 2 realizations (rows of ``perm`` and
    ``which`` in turn), the number of durations its first two realizations
    share and the number of positions their arrival orders agree on."""
    if perm.rows == r:
        # one dataset: its pair decodes faster in Python ints
        first, second = perm.row(0), perm.row(1)
        return ([len(set(which.row(0)).intersection(which.row(1)))],
                [sum(a == b for a, b in zip(first, second))])
    sets = perm.rows // r
    first = np.arange(0, perm.rows, r)
    pairs = np.stack([first, first + 1], axis=1).reshape(-1)
    p = perm.outcomes(pairs).reshape(sets, 2, -1)
    w = which.outcomes(pairs).reshape(sets, 2, -1)
    overlap = (w[:, 0, :, None] == w[:, 1, None, :]).sum(axis=(1, 2))
    fixed = (p[:, 0] == p[:, 1]).sum(axis=1)
    return overlap, fixed


# -- model-side quantities ------------------------------------------------

@functools.lru_cache(maxsize=128)
def _integral_sf(deg: KnownDistribution, t: float) -> float:
    """int_0^t (1 - F(x)) dx = E[min(D, t)] for a duration law D >= 0, the
    law's closed-form limited mean.

    Cached per (distribution, t): callers pass ``float(t)``, and the
    distribution is a frozen value object, so equal laws share an entry."""
    return deg.limited_mean(t)


@dataclass(frozen=True)
class TruthSummary:
    """Exact damage-count law under the generating model."""

    t: float
    rate: float
    active_mean: float
    terminal_mean: float

    def active_pmf(self, i):
        return poisson_pmf(i, self.active_mean)

    def terminal_pmf(self, i):
        return poisson_pmf(i, self.terminal_mean)


def _finite_time(t: float) -> float:
    """``t`` as a float; NaN, a negative or an infinite t raises
    ValueError."""
    if not 0 <= t < math.inf:
        raise ValueError(f"time t must be finite and non-negative, got {t}")
    return float(t)


def poisson_truth(truth: DamageTruth, t: float) -> TruthSummary:
    """Exact E X_t, E Y_t and Poisson count laws at time t."""
    isf = _integral_sf(truth.degradation, _finite_time(t))
    return TruthSummary(t=float(t), rate=truth.rate,
                        active_mean=truth.rate * isf,
                        terminal_mean=truth.rate * (t - isf))


@dataclass(frozen=True, eq=False)
class EstimatorExpectation:
    """Tail-capped expectation of the resampling estimator under the model."""

    t: float
    n_a: int
    p1: float
    active_mean: float
    active_pmf: np.ndarray  # E P*_{X_t}(i), i = 0..n_A


def estimator_expectation(truth: DamageTruth, n_a: int, t: float) -> EstimatorExpectation:
    """Expected value of the n_A-capped resampling estimator (see module
    doc); ``n_a`` is checked as by :func:`damage_variance_mc`."""
    n_a = _count(n_a, "n_a")
    summ = poisson_truth(truth, t)
    lam_t = truth.rate * t
    p1 = summ.active_mean / lam_t if lam_t > 0 else 0.0
    j = np.arange(0, n_a + 1)
    d = poisson_pmf(j, lam_t)
    tail = float(poisson_sf(n_a, lam_t))
    mean = p1 * (float(np.dot(j, d)) + n_a * tail)
    pmf = np.empty(n_a + 1)
    for i in range(n_a + 1):
        jj = np.arange(i, n_a + 1)
        body = float(np.dot(poisson_pmf(jj, lam_t), binom_pmf(i, jj, p1)))
        pmf[i] = body + float(binom_pmf(i, n_a, p1)) * tail
    return EstimatorExpectation(t=float(t), n_a=n_a, p1=p1,
                                active_mean=mean, active_pmf=pmf)


# -- replication study ----------------------------------------------------

@dataclass(frozen=True)
class DamageMCReport:
    """Spread of the resampling estimate over fresh data replications."""

    t: float
    n_a: int
    n_b: int
    r: int
    replications: int
    truth_active_mean: float
    estimate_mean: float
    estimate_var: float
    estimate_mse: float
    mean_se: float
    diagnostics: dict


def damage_variance_mc(truth: DamageTruth, n_a: int, n_b: int, t: float,
                       r: int, replications: int, seed: int,
                       threads: int = 1) -> DamageMCReport:
    """Draw fresh (H_A, H_B) data repeatedly; study the active-mean estimate.

    Variance is taken around the replication mean, MSE around the exact
    E X_t of the generating model.  Replication ``rep`` draws its data from
    the substream ``(seed, DAMAGE_OUTER, rep)`` and then an inner seed, which
    keys its :func:`resample_damage_counts` blocks.  Replications run in
    batches that derive at most :data:`BLOCK` inner keys at once; its
    counts are read in the prefix walk of :func:`resample_damage_counts`,
    with r <= BLOCK together with those of up to BLOCK // r others.
    ``threads`` is accepted for compatibility and has no effect.
    ``n_a``, ``n_b``, ``r`` and ``replications`` must be integers, not
    bools (TypeError), of at least 1 (2 for ``replications``; ValueError).
    """
    n_a, n_b = _count(n_a, "n_a"), _count(n_b, "n_b")
    r = _count(r, "r")
    replications = _count(replications, "replications", 2)
    if n_a > n_b:
        raise ValueError(f"need n_A <= n_B, got {n_a} > {n_b}")
    summ = poisson_truth(truth, t)
    estimates, overlap, fixed = np.empty((3, replications))
    blocks = block_count(r)
    batch = max(1, BLOCK // blocks)
    outer = substreams(seed, Lane.DAMAGE_OUTER, np.arange(replications))
    for lo in range(0, replications, batch):
        hi = min(lo + batch, replications)
        h_a, h_b, inner_seeds = _fresh_data(truth, outer, n_a, n_b, hi - lo,
                                            inner_seeds=True)
        # block b of replication rep's counts: (inner_seed, lane, b)
        inner = substreams(np.repeat(inner_seeds, blocks),
                           Lane.DAMAGE_RESAMPLE,
                           np.tile(np.arange(blocks), hi - lo))
        estimates[lo:hi], overlap[lo:hi], fixed[lo:hi], _ = _walk(
            h_a, h_b, t, r, inner)
    mean = float(estimates.mean())
    var = float(estimates.var(ddof=1))
    mse = float(np.mean((estimates - summ.active_mean) ** 2))
    return DamageMCReport(
        t=float(t), n_a=n_a, n_b=n_b, r=r, replications=replications,
        truth_active_mean=summ.active_mean,
        estimate_mean=mean, estimate_var=var, estimate_mse=mse,
        mean_se=float(math.sqrt(var / replications)),
        diagnostics={
            "duration_overlap_mean": float(overlap.mean()),
            "arrival_fixed_points_mean": float(fixed.mean()),
        })


def _fresh_data(truth: DamageTruth, streams, n_a: int, n_b: int, count: int,
                inner_seeds: bool = False):
    """Data of the next ``count`` replications of a study, one generator of
    ``streams`` each: H_A from the arrival rate, H_B from the degradation
    law, then an inner seed when ``inner_seeds``.  Returns the stacked
    (count, n_A) and (count, n_B) data, checked as :class:`DamageData`
    checks it, and the list of inner seeds."""
    h_a = np.empty((count, n_a))
    h_b = np.empty((count, n_b))
    seeds = []
    for i, rng in zip(range(count), streams):
        h_a[i] = rng.exponential(1.0 / truth.rate, n_a)
        h_b[i] = truth.degradation.sample(rng, n_b)
        if inner_seeds:
            seeds.append(int(rng.integers(0, 2 ** 62)))
    _check_data(h_a, h_b)
    return h_a, h_b, seeds


# -- plug-in baseline and hybrid pmf --------------------------------------

@dataclass(frozen=True)
class PluginEstimate:
    """Parametric plug-in: exponential arrivals + empirical durations."""

    t: float
    rate: float
    active_mean: float
    terminal_mean: float

    def active_pmf(self, i):
        return poisson_pmf(i, self.active_mean)


def plugin_estimate(data: DamageData, t: float) -> PluginEstimate:
    """Fit lambda = n_A / sum(H_A) and the duration ecdf; read the law off.

    int_0^t (1 - Fhat(x)) dx reduces to the mean of min(duration, t).
    A NaN, negative or infinite t raises ValueError.
    """
    _finite_time(t)
    rates, isfs = _plugin_fit(data.h_a[None], data.h_b[None], t)
    rate, isf = float(rates[0]), float(isfs[0])
    return PluginEstimate(t=float(t), rate=rate, active_mean=rate * isf,
                          terminal_mean=rate * (t - isf))


def _plugin_fit(h_a: np.ndarray, h_b: np.ndarray, t: float):
    """Plug-in rate and int_0^t (1 - Fhat(x)) dx of each dataset, one per
    row of the stacked H_A and H_B."""
    total = h_a.sum(axis=1)
    with np.errstate(divide="ignore", over="ignore"):
        rate = h_a.shape[1] / total
    infinite = np.flatnonzero(np.isinf(rate))
    if len(infinite):
        first = float(total[infinite[0]])
        raise ValueError("the plug-in rate n_A / sum(H_A) is infinite: the "
                         f"inter-arrival times sum to {first!r}")
    return rate, np.minimum(h_b, t).mean(axis=1)


def plugin_expectation(truth: DamageTruth, n_a: int, t: float) -> float:
    """Exact mean of the plug-in active estimate under the generating model.

    lambda-hat = n_A / sum(H_A) has mean lambda n_A/(n_A - 1) for
    exponential inter-arrivals, independent of the duration part whose
    integral estimate is unbiased; needs an integer n_A >= 2 and a finite
    t >= 0.
    """
    n_a = _count(n_a, "n_a")
    if n_a < 2:
        raise ValueError("the plug-in rate has no finite mean for n_A < 2")
    return (n_a / (n_a - 1.0)) * truth.rate * _integral_sf(truth.degradation,
                                                         _finite_time(t))


@dataclass(frozen=True)
class PluginMCReport:
    """Replication study of the plug-in estimate on fresh data."""

    t: float
    n_a: int
    n_b: int
    replications: int
    truth_active_mean: float
    estimate_mean: float
    estimate_var: float
    estimate_mse: float
    mean_se: float


def plugin_variance_mc(truth: DamageTruth, n_a: int, n_b: int, t: float,
                       replications: int, seed: int) -> PluginMCReport:
    """Bias/Var/MSE of the plug-in estimate over fresh-data replications.

    Uses the same data substreams as :func:`damage_variance_mc`, so with
    equal seeds the two studies see identical datasets.  ``n_a``, ``n_b``
    and ``replications`` are checked as by :func:`damage_variance_mc`.
    """
    n_a, n_b = _count(n_a, "n_a"), _count(n_b, "n_b")
    replications = _count(replications, "replications", 2)
    summ = poisson_truth(truth, t)
    estimates = np.empty(replications, dtype=float)
    streams = substreams(seed, Lane.DAMAGE_OUTER, np.arange(replications))
    for lo in range(0, replications, BLOCK):
        hi = min(lo + BLOCK, replications)
        h_a, h_b, _ = _fresh_data(truth, streams, n_a, n_b, hi - lo)
        rate, isf = _plugin_fit(h_a, h_b, t)
        estimates[lo:hi] = rate * isf
    mean = float(estimates.mean())
    var = float(estimates.var(ddof=1))
    mse = float(np.mean((estimates - summ.active_mean) ** 2))
    return PluginMCReport(
        t=float(t), n_a=n_a, n_b=n_b, replications=replications,
        truth_active_mean=summ.active_mean, estimate_mean=mean,
        estimate_var=var, estimate_mse=mse,
        mean_se=float(math.sqrt(var / replications)))


def hybrid_pmf(counts: CountEstimates, plugin: PluginEstimate,
               i_max: int) -> np.ndarray:
    """Splice the resampled pmf (i <= n_A) with the plug-in tail, renormalized.

    The resampling route cannot produce counts above n_A; beyond that the
    plug-in Poisson tail fills in, and the whole vector is renormalized.
    ``i_max`` must be an integer (TypeError for a bool or a float) of at
    least n_A (ValueError).
    """
    i_max = _check_i_max(i_max, counts.n_a)
    out = np.empty(i_max + 1)
    out[:counts.n_a + 1] = counts.active_pmf
    out[counts.n_a + 1:] = plugin.active_pmf(np.arange(counts.n_a + 1, i_max + 1))
    total = out.sum()
    if total > 0:
        out /= total
    return out


def _check_i_max(i_max, n_a: int) -> int:
    """``i_max`` as an int, checked as :func:`hybrid_pmf` says."""
    i_max = _count(i_max, "i_max", least=0)
    if i_max < n_a:
        raise ValueError(f"i_max must cover the resampled range 0..{n_a}")
    return i_max
