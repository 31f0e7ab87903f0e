"""Tests for the damage-accumulation process model and its estimators."""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from resamplekit import _streams
from resamplekit._streams import BLOCK, Lane
from resamplekit.damage import (
    CountEstimates,
    DamageData,
    DamageTruth,
    _integral_sf,
    damage_variance_mc,
    estimator_expectation,
    hybrid_pmf,
    plugin_estimate,
    plugin_expectation,
    plugin_variance_mc,
    poisson_truth,
    resample_damage_counts,
)
from resamplekit.distributions import (empirical, exponential, triangular,
                                       uniform)

from helpers import (combined_se, damage_counts_oracle, damage_variance_oracle,
                     first_untabulated, fresh_blocks, plugin_variance_oracle)

TRI_TRUTH = DamageTruth(rate=0.5, degradation=triangular(0.0, 2.0, 4.0))


# -- data container --------------------------------------------------------

def test_damage_data_properties():
    data = DamageData([1.0, 2.0, 0.5], [0.3, 0.7, 1.1, 2.0])
    assert data.n_a == 3
    assert data.n_b == 4
    with pytest.raises(ValueError):
        data.h_a[0] = 9.0


@pytest.mark.parametrize("h_a, h_b", [
    ([], [1.0]),
    ([1.0], []),
    ([[1.0, 2.0]], [1.0, 2.0]),
    ([-0.1, 1.0], [1.0, 2.0]),
    ([1.0, 2.0], [-1.0, 2.0]),
    ([1.0, 2.0, 3.0], [1.0, 2.0]),   # n_A > n_B
])
def test_damage_data_rejects(h_a, h_b):
    with pytest.raises(ValueError):
        DamageData(h_a, h_b)


def test_damage_truth_rejects():
    """Every accepted truth yields fresh data that passes DamageData's
    checks, so a replication study fails on the first bad chunk in the
    order a one-replication loop would.  A law with a NaN parameter is
    refused already by the distribution."""
    for rate, law in [(0.0, lambda: exponential(1.0)),
                      (math.inf, lambda: exponential(1.0)),
                      (math.nan, lambda: exponential(1.0)),
                      (1.0, lambda: uniform(-1.0, 1.0)),
                      (1.0, lambda: empirical([1.0, math.nan])),
                      (1.0, lambda: empirical([math.nan, 1.0])),
                      (1.0, lambda: exponential(math.nan))]:
        with pytest.raises(ValueError):
            DamageTruth(rate=rate, degradation=law())


# -- resampling the process ------------------------------------------------

def test_resample_deterministic():
    data = DamageData([1.0, 0.4, 2.2, 0.9], [0.5, 1.5, 0.2, 3.0, 0.8])
    a = resample_damage_counts(data, t=3.0, r=500, seed=11)
    b = resample_damage_counts(data, t=3.0, r=500, seed=11)
    assert a.active_mean == b.active_mean
    assert np.array_equal(a.active_pmf, b.active_pmf)
    assert np.array_equal(a.terminal_pmf, b.terminal_pmf)
    c = resample_damage_counts(data, t=3.0, r=500, seed=12)
    assert not np.array_equal(a.active_pmf, c.active_pmf)


def test_resample_pmf_consistency():
    data = DamageData([1.0, 0.4, 2.2], [0.5, 1.5, 0.2, 3.0])
    est = resample_damage_counts(data, t=2.0, r=2000, seed=3)
    i = np.arange(data.n_a + 1)
    assert est.n_a == data.n_a
    assert est.active_pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert est.terminal_pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert est.active_mean == pytest.approx(float(np.dot(i, est.active_pmf)))
    assert est.terminal_mean == pytest.approx(float(np.dot(i, est.terminal_pmf)))
    assert est.active_se > 0.0
    assert est.terminal_se > 0.0


def test_resample_time_edges():
    data = DamageData([1.0, 0.5], [0.3, 0.4, 0.6])
    early = resample_damage_counts(data, t=0.0, r=50, seed=1)
    # no arrival epoch can be <= 0 strictly before any positive partial sum
    assert early.active_mean == 0.0
    assert early.terminal_mean == 0.0
    late = resample_damage_counts(data, t=1e9, r=50, seed=1)
    # far beyond every epoch + duration: all arrivals are terminal
    assert late.terminal_mean == data.n_a
    assert late.active_mean == 0.0


@pytest.mark.parametrize("t, r", [(-1.0, 10), (math.nan, 10), (1.0, 0)])
def test_resample_rejects(t, r):
    data = DamageData([1.0], [1.0])
    with pytest.raises(ValueError):
        resample_damage_counts(data, t=t, r=r, seed=0)


def exact_resample_law(data, t):
    """Enumerate every (arrival permutation, ordered duration draw) outcome.

    Both randomizations are uniform and independent, so averaging the counts
    over the full product gives the exact law the resampler targets.
    """
    n_a, n_b = data.n_a, data.n_b
    active_pmf = np.zeros(n_a + 1)
    terminal_pmf = np.zeros(n_a + 1)
    combos = 0
    for perm in itertools.permutations(range(n_a)):
        tau = np.cumsum(data.h_a[list(perm)])
        for pick in itertools.permutations(range(n_b), n_a):
            end = tau + data.h_b[list(pick)]
            active = int(np.sum((tau <= t) & (t < end)))
            terminal = int(np.sum(end <= t))
            active_pmf[active] += 1
            terminal_pmf[terminal] += 1
            combos += 1
    return active_pmf / combos, terminal_pmf / combos


def test_resample_matches_exhaustive_enumeration():
    data = DamageData([0.8, 0.3, 1.4], [0.5, 2.0, 0.9, 0.1])
    t = 1.6
    exact_active, exact_terminal = exact_resample_law(data, t)
    r = 40_000
    est = resample_damage_counts(data, t, r=r, seed=77)
    i = np.arange(data.n_a + 1)
    for exact, got_pmf, got_mean in [
        (exact_active, est.active_pmf, est.active_mean),
        (exact_terminal, est.terminal_pmf, est.terminal_mean),
    ]:
        mean = float(np.dot(i, exact))
        var = float(np.dot(i ** 2, exact)) - mean ** 2
        assert got_mean == pytest.approx(mean, abs=4.0 * math.sqrt(var / r) + 1e-12)
        for k in range(data.n_a + 1):
            se = math.sqrt(exact[k] * (1.0 - exact[k]) / r)
            assert abs(got_pmf[k] - exact[k]) <= 4.0 * se + 1e-12


def test_resample_diagnostics():
    data = DamageData([1.0, 0.4, 2.2], [0.5, 1.5, 0.2])
    est = resample_damage_counts(data, t=2.0, r=200, seed=5)
    diag = est.diagnostics
    assert diag["pairs_inspected"] == 1   # single block of realizations
    # n_A == n_B: every duration index is used, so two draws always share all 3
    assert diag["duration_overlap_mean"] == 3.0
    assert 0.0 <= diag["arrival_fixed_points_mean"] <= data.n_a


# -- exact model law -------------------------------------------------------

def test_poisson_truth_triangular_anchor():
    summ = poisson_truth(TRI_TRUTH, t=5.0)
    # int_0^5 sf = 2 for triangular(0, 2, 4), so E X_5 = 1, E Y_5 = 1.5
    assert summ.active_mean == pytest.approx(1.0, abs=1e-10)
    assert summ.terminal_mean == pytest.approx(1.5, abs=1e-10)
    assert summ.active_pmf(0) == pytest.approx(math.exp(-1.0), abs=1e-10)
    assert summ.terminal_pmf(0) == pytest.approx(math.exp(-1.5), abs=1e-10)


def test_poisson_truth_exponential_closed_form():
    lam, mu, t = 2.0, 0.5, 3.0
    summ = poisson_truth(DamageTruth(rate=lam, degradation=exponential(mu)), t)
    isf = (1.0 - math.exp(-mu * t)) / mu
    assert summ.active_mean == pytest.approx(lam * isf, rel=1e-9)
    assert summ.terminal_mean == pytest.approx(lam * (t - isf), rel=1e-9)


def test_poisson_truth_zero_time():
    summ = poisson_truth(TRI_TRUTH, t=0.0)
    assert summ.active_mean == 0.0
    assert summ.terminal_mean == 0.0
    with pytest.raises(ValueError):
        poisson_truth(TRI_TRUTH, t=-1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_truth_routes_reject_non_finite_times(t):
    with pytest.raises(ValueError, match="finite and non-negative"):
        poisson_truth(TRI_TRUTH, t=t)
    with pytest.raises(ValueError, match="finite and non-negative"):
        estimator_expectation(TRI_TRUTH, 3, t)


def quad_oracle(law, t):
    """int_0^t (1 - F) by integrate.quad, split at every corner of the law
    (support ends, triangular mode, empirical values) inside (0, t)."""
    corners = set(law.params) | set(law.support())
    pts = sorted(p for p in corners if 0.0 < p < t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(law.sf, 0.0, t, points=pts or None, limit=200,
                              epsabs=0.0, epsrel=2e-14)[0]


def test_poisson_truth_integrates_once_per_law_and_time():
    _integral_sf.cache_clear()
    base = poisson_truth(TRI_TRUTH, 5.0)
    # an equal law and an int time reuse the entry
    same = poisson_truth(DamageTruth(0.5, triangular(0, 2, 4)), 5)
    assert _integral_sf.cache_info()[:2] == (1, 1)  # hits, misses
    assert same == base
    assert base.active_mean == pytest.approx(
        0.5 * quad_oracle(TRI_TRUTH.degradation, 5.0), rel=1e-13)
    # another time, or a law that differs in one parameter, misses
    later = poisson_truth(TRI_TRUTH, 3.5)
    wider = poisson_truth(DamageTruth(0.5, triangular(0, 2, 4.5)), 5.0)
    assert _integral_sf.cache_info()[:2] == (1, 3)
    assert later.active_mean == pytest.approx(
        0.5 * quad_oracle(TRI_TRUTH.degradation, 3.5), rel=1e-13)
    assert wider.active_mean == pytest.approx(
        0.5 * quad_oracle(triangular(0, 2, 4.5), 5.0), rel=1e-13)
    assert len({base.active_mean, later.active_mean, wider.active_mean}) == 3


@pytest.mark.parametrize("law", [
    exponential(0.7), uniform(0.0, 2.0), uniform(1.0, 3.0),
    triangular(0.0, 2.0, 4.0), triangular(1.0, 1.0, 3.0),
    triangular(1.0, 3.0, 3.0), triangular(0.5, 1.25, 4.0),
    empirical([0.0, 0.5, 2.0, 2.0, 3.5]), empirical([1.5])],
    ids=repr)
def test_truth_integral_closed_form_matches_quadrature(law):
    """E[min(D, t)] in closed form equals int_0^t (1 - F) by quadrature, at
    t below, at, inside and above each corner of the law."""
    corners = sorted(p for p in set(law.params) | set(law.support())
                     if math.isfinite(p))
    times = {0.0, 40.0}
    for lo, hi in zip([corners[0] - 1.0] + corners, corners + [corners[-1] + 1.0]):
        times |= {lo, (lo + hi) / 2, hi}
    for t in sorted(x for x in times if x >= 0.0):
        _integral_sf.cache_clear()
        assert _integral_sf(law, t) == pytest.approx(quad_oracle(law, t),
                                                     rel=1e-13, abs=0.0), t


# -- capped expectation of the resampling estimator ------------------------

def test_estimator_expectation_identities():
    exp_ = estimator_expectation(TRI_TRUTH, n_a=7, t=5.0)
    assert exp_.p1 == pytest.approx(0.4, rel=1e-9)
    assert exp_.active_pmf.sum() == pytest.approx(1.0, abs=1e-12)
    i = np.arange(exp_.n_a + 1)
    assert exp_.active_mean == pytest.approx(
        float(np.dot(i, exp_.active_pmf)), abs=1e-12)


def test_estimator_expectation_pmf_at_large_cap():
    """The capped pmf keeps scipy.stats's binomial and Poisson bits where
    comb(n_A, n_A / 2) no longer fits a float."""
    exp_ = estimator_expectation(TRI_TRUTH, n_a=1100, t=5.0)
    assert np.isfinite(exp_.active_pmf).all()
    assert exp_.active_pmf.sum() == pytest.approx(1.0, abs=1e-12)
    lam_t, n_a = TRI_TRUTH.rate * 5.0, exp_.n_a
    tail = float(stats.poisson.sf(n_a, lam_t))
    for i in (0, 1, 2, 550, 1099, 1100):
        jj = np.arange(i, n_a + 1)
        want = float(np.dot(stats.poisson.pmf(jj, lam_t),
                            stats.binom.pmf(i, jj, exp_.p1))) \
            + float(stats.binom.pmf(i, n_a, exp_.p1)) * tail
        assert exp_.active_pmf[i] == want, i


def test_estimator_expectation_cap_monotone():
    means = [estimator_expectation(TRI_TRUTH, n_a, 5.0).active_mean
             for n_a in range(1, 9)]
    assert all(a < b for a, b in zip(means, means[1:]))
    truth_mean = poisson_truth(TRI_TRUTH, 5.0).active_mean
    assert all(m < truth_mean for m in means)
    assert estimator_expectation(TRI_TRUTH, 60, 5.0).active_mean == pytest.approx(
        truth_mean, abs=1e-12)


@pytest.mark.parametrize("n_a, expected_mean", [
    (3, 0.8347), (4, 0.9317), (5, 0.9752),
    (6, 0.9920), (7, 0.9977), (8, 0.9994),
])
def test_estimator_expectation_mean_anchors(n_a, expected_mean):
    exp_ = estimator_expectation(TRI_TRUTH, n_a, 5.0)
    assert exp_.active_mean == pytest.approx(expected_mean, abs=5e-5)


def test_estimator_expectation_pmf_near_poisson_for_large_cap():
    exp_ = estimator_expectation(TRI_TRUTH, n_a=8, t=5.0)
    ref = stats.poisson.pmf(np.arange(6), 1.0)
    assert np.max(np.abs(exp_.active_pmf[:6] - ref)) < 1e-3
    assert exp_.active_pmf[1] == pytest.approx(0.368, abs=0.01)


def test_estimator_expectation_rejects():
    with pytest.raises(ValueError):
        estimator_expectation(TRI_TRUTH, n_a=0, t=5.0)


# -- replication study -----------------------------------------------------

def naive_variance_study(truth, n_a, n_b, t, r, replications, master_seed):
    """Plain-loop re-enactment with an independent RNG stream.

    Fresh data per replication, then r trajectory re-enactments using
    permutation / choice directly; everything scalar Python.
    """
    rng = np.random.default_rng(master_seed)
    means = []
    for _ in range(replications):
        h_a = rng.exponential(1.0 / truth.rate, n_a)
        h_b = truth.degradation.sample(rng, n_b)
        total = 0
        for _ in range(r):
            tau = np.cumsum(rng.permutation(h_a))
            dur = rng.choice(h_b, size=n_a, replace=False)
            for arrive, length in zip(tau, dur):
                if arrive <= t < arrive + length:
                    total += 1
        means.append(total / r)
    return np.asarray(means)


def test_damage_variance_mc_matches_naive_oracle():
    n_a = n_b = 5
    t, r, reps = 5.0, 10, 400
    report = damage_variance_mc(TRI_TRUTH, n_a, n_b, t, r=r,
                                replications=reps, seed=202)
    oracle = naive_variance_study(TRI_TRUTH, n_a, n_b, t, r, reps, 9119)
    oracle_se = oracle.std(ddof=1) / math.sqrt(len(oracle))
    tol = 4.0 * combined_se(report.mean_se, oracle_se)
    assert abs(report.estimate_mean - oracle.mean()) <= tol


EXP_TRUTH = DamageTruth(rate=1.5, degradation=exponential(0.7))
UNI_TRUTH = DamageTruth(rate=0.5, degradation=uniform(0.5, 3.0))
EMP_TRUTH = DamageTruth(rate=0.8, degradation=empirical([0.2, 1.0, 2.5, 6.0]))


def study_ids(cases):
    """Test ids: the sizes and seed, after the degradation family unless
    it is the triangular law of most cases."""
    return ["-".join([c[0].degradation.family] * (c[0] is not TRI_TRUTH)
                     + [str(x) for x in c[1:]]) for c in cases]


DAMAGE_STUDIES = [
    (TRI_TRUTH, 3, 4, 10, 50, 0),
    (TRI_TRUTH, 5, 5, 100, 30, 2**40 + 1),
    # r = 1 leaves the diagnostics NaN
    (TRI_TRUTH, 2, 2, 1, 12, 4),
    # more replications than one batch of keys
    (TRI_TRUTH, 2, 3, 2, BLOCK + 4, 7),
    # several count blocks per replication, on both key routes
    (TRI_TRUTH, 3, 3, 2 * BLOCK + 1, 6, 11),
    (TRI_TRUTH, 2, 2, BLOCK + 1, 3, 2**64 + 5),
    # durations on the digit routes: perm(12, 7) > 2**16 with 7**2 > 12
    # (dense swaps), and 3**2 <= 300 (compare and select)
    (TRI_TRUTH, 7, 12, 40, 25, 13),
    (TRI_TRUTH, 3, 300, 50, 12, 3),
    # r = 1000 counts four replications per walk: three walks
    (TRI_TRUTH, 4, 6, 1000, 10, 21),
    (EXP_TRUTH, 5, 8, 30, 40, 2**33),
    (UNI_TRUTH, 6, 6, 3, 20, 5),
    (EMP_TRUTH, 3, 9, 17, 15, 0),
    # 20 arrivals and 30 durations on the swap routes, r = BLOCK
    (TRI_TRUTH, 20, 30, BLOCK, 2, 8),
    # n_A = n_B: one joined rank draw for the arrival order and the
    # durations at 8! outcomes, one draw each at 9! (swap digits); and
    # n_A < n_B, two draws of unequal counts (4! and 5!/1!)
    (TRI_TRUTH, 8, 8, 7, 9, 31),
    (TRI_TRUTH, 9, 9, 5, 4, 17),
    (TRI_TRUTH, 4, 5, 64, 9, 23)]


@pytest.mark.parametrize("truth, n_a, n_b, r, replications, seed",
                         DAMAGE_STUDIES, ids=study_ids(DAMAGE_STUDIES))
def test_damage_variance_mc_equals_per_replication_oracle(truth, n_a, n_b, r,
                                                          replications, seed):
    got = damage_variance_mc(truth, n_a, n_b, 5.0, r=r,
                             replications=replications, seed=seed)
    want = damage_variance_oracle(truth, n_a, n_b, 5.0, r, replications,
                                  seed)
    # repr, so that NaN diagnostics compare equal
    assert repr(got) == repr(want)


PLUGIN_STUDIES = [
    (TRI_TRUTH, 3, 4, 500, 3),
    (TRI_TRUTH, 3, 4, BLOCK + 2, 2**33),
    (EXP_TRUTH, 9, 20, 300, 1),
    (UNI_TRUTH, 1, 1, 40, 2**64 + 1),
    (EMP_TRUTH, 12, 130, 25, 6)]


# the first two cases keep the ids they had before n_A and n_B varied
@pytest.mark.parametrize(
    "truth, n_a, n_b, replications, seed", PLUGIN_STUDIES,
    ids=["500-3", f"{BLOCK + 2}-{2**33}"] + study_ids(PLUGIN_STUDIES[2:]))
def test_plugin_variance_mc_equals_per_replication_oracle(truth, n_a, n_b,
                                                          replications, seed):
    got = plugin_variance_mc(truth, n_a, n_b, 5.0, replications=replications,
                             seed=seed)
    assert got == plugin_variance_oracle(truth, n_a, n_b, 5.0, replications,
                                         seed)


def raised(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("truth, n_a, n_b, no_arrivals", [
    # no arrival gaps, more arrivals than durations, and inter-arrival times
    # whose sum is so small that the plug-in rate overflows
    (TRI_TRUTH, 0, 3, True),
    (TRI_TRUTH, 4, 3, False),
    (DamageTruth(1.7e308, uniform(0.0, 1.0)), 2, 2, False)])
def test_replication_studies_keep_the_per_replication_checks(truth, n_a, n_b,
                                                            no_arrivals):
    if no_arrivals:
        # n_A = 0 is refused as a count before any replication runs, so the
        # per-replication data check cannot be reached with valid counts
        for study in (lambda: plugin_variance_mc(truth, n_a, n_b, 5.0, 10, 1),
                      lambda: damage_variance_mc(truth, n_a, n_b, 5.0, 4, 10,
                                                 1)):
            assert raised(study) == "need n_a >= 1, got 0"
        return
    assert raised(lambda: plugin_variance_mc(truth, n_a, n_b, 5.0, 10, 1)) \
        == raised(lambda: plugin_variance_oracle(truth, n_a, n_b, 5.0, 10, 1))


@pytest.mark.parametrize("r", [5, BLOCK + 1, 11 * BLOCK + 5])
def test_resample_blocks_equal_fresh_substreams(r):
    data = DamageData([0.5, 1.0, 2.5], [1.0, 3.0, 0.2, 4.0])
    got = resample_damage_counts(data, 2.0, r, 99)
    want = damage_counts_oracle(data, 2.0, r, 99,
                                fresh_blocks(99, Lane.DAMAGE_RESAMPLE, r))
    for name in ("active_mean", "terminal_mean", "diagnostics"):
        assert getattr(got, name) == getattr(want, name)
    assert got.active_pmf.tobytes() == want.active_pmf.tobytes()
    assert got.terminal_pmf.tobytes() == want.terminal_pmf.tobytes()


# -- the prefix walk against whole realization matrices -------------------

WALK = settings(derandomize=True, deadline=None, max_examples=8,
                database=None)
# sums of these are exact in any order, so t can sit exactly on an epoch
# or an end of many realizations
DYADIC = [0.0, 0.25, 0.5, 1.0, 1.75, 3.0]


@st.composite
def duration_routes(draw):
    """(n_A, n_B) with the durations on the table, dense or select route
    of draw_distinct, n_B = n_A**2 - 1 and n_B = n_A**2 drawn often on
    either side of the select route's switch."""
    route = draw(st.sampled_from(["table", "dense", "select"]))
    if route == "table":
        n_a = draw(st.integers(1, 8))
        n_b = draw(st.integers(n_a, first_untabulated(n_a) - 1))
    elif route == "dense":
        n_a = draw(st.integers(5, 30))
        n_b = draw(st.one_of(st.just(n_a * n_a - 1), st.integers(
            first_untabulated(n_a), n_a * n_a - 1)))
    else:
        n_a = draw(st.integers(1, 30))
        low = max(n_a * n_a, first_untabulated(n_a))
        n_b = draw(st.one_of(st.just(low), st.integers(low, low + 50)))
    return n_a, n_b


@st.composite
def walk_cases(draw, when):
    """Data with zero gaps and durations, and t at 0 (``when="zero"``), on
    an epoch, between two epochs, past every epoch or infinite."""
    n_a, n_b = draw(duration_routes())
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if when == "epoch" or draw(st.booleans()):
        h_a = rng.choice(DYADIC, n_a)
        h_b = rng.choice(DYADIC, n_b)
    else:
        h_a = rng.exponential(1.0, n_a)
        h_b = rng.uniform(0.0, 3.0, n_b)
        h_a[rng.random(n_a) < 0.2] = 0.0
        h_b[rng.random(n_b) < 0.2] = 0.0
    j = draw(st.integers(1, n_a))
    epochs = np.cumsum(h_a)
    t = {"zero": 0.0, "epoch": epochs[j - 1],
         "between": (epochs[j - 1] + (epochs[j] if j < n_a else 9.0)) / 2,
         "past": epochs[-1] + 1.0, "inf": math.inf}[when]
    return DamageData(h_a, h_b), float(t)


def same_counts(got, want) -> bool:
    return (got.active_pmf.tobytes(), got.terminal_pmf.tobytes(),
            np.float64(got.active_mean).tobytes(),
            np.float64(got.terminal_mean).tobytes(),
            repr(got.diagnostics)) == (
        want.active_pmf.tobytes(), want.terminal_pmf.tobytes(),
        np.float64(want.active_mean).tobytes(),
        np.float64(want.terminal_mean).tobytes(), repr(want.diagnostics))


@pytest.mark.parametrize("r", [1, 2, BLOCK - 1, BLOCK + 1])
@pytest.mark.parametrize("when", ["zero", "epoch", "between", "past", "inf"])
@WALK
@given(data=st.data(), seed=st.integers(0, 2**40))
def test_resample_walk_equals_realization_matrices(when, r, data, seed):
    data, t = data.draw(walk_cases(when))
    got = resample_damage_counts(data, t, r, seed)
    want = damage_counts_oracle(data, t, r, seed,
                                fresh_blocks(seed, Lane.DAMAGE_RESAMPLE, r))
    assert same_counts(got, want)


@pytest.mark.parametrize("r", [2, 7, BLOCK + 1])
@settings(WALK, max_examples=12)
@given(shape=duration_routes(), t=st.sampled_from([0.0, 1.75, 4.0, 1e3]),
       seed=st.integers(0, 2**40))
def test_studies_equal_realization_matrices(r, shape, t, seed):
    """damage_variance_mc counts each replication with the prefix walk of
    resample_damage_counts, the replications of a chunk joined in one walk
    when r <= BLOCK."""
    n_a, n_b = shape
    truth = DamageTruth(rate=0.8, degradation=empirical([0.0, 0.5, 1.75,
                                                         3.0]))
    replications = 2 if r > BLOCK else 5
    got = damage_variance_mc(truth, n_a, n_b, t, r=r,
                             replications=replications, seed=seed)
    want = damage_variance_oracle(truth, n_a, n_b, t, r, replications, seed)
    assert repr(got) == repr(want)


def test_walk_sums_overflow_without_a_warning():
    # an epoch or an end that overflows to inf is past every finite t
    data = DamageData([1e308, 1e308, 0.5], [1e308, 1.0, 1e308, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = resample_damage_counts(data, 1.5e308, 50, 3)
    with np.errstate(over="ignore"):
        want = damage_counts_oracle(data, 1.5e308, 50, 3, fresh_blocks(
            3, Lane.DAMAGE_RESAMPLE, 50))
    assert same_counts(got, want)
    assert 0 < got.active_mean < 3


def test_wide_walk_reads_decoded_outcomes():
    """Above _DENSE_CELLS / BLOCK = 1024 arrivals a block's arrival order
    and durations are decoded whole in row chunks, not read position by
    position: no (n_A, rows) swap table, and no compare and select, whose
    cost grows with the square of n_A."""
    rng = np.random.default_rng(5)
    data = DamageData(rng.exponential(1.0, 1030), rng.uniform(0, 3, 1030))
    decoded = []

    def dense(n, digits):
        decoded.append(digits.shape)
        return real_dense(n, digits)

    real_dense = _streams._fy_dense
    with mock.patch.object(_streams, "_unswap",
                           side_effect=AssertionError("select route")), \
            mock.patch.object(_streams, "_fy_dense", dense):
        got = resample_damage_counts(data, math.inf, BLOCK, 12)
    # the arrival order and the durations, each decoded whole
    assert decoded == [(1030, BLOCK)] * 2
    want = damage_counts_oracle(data, math.inf, BLOCK, 12,
                                fresh_blocks(12, Lane.DAMAGE_RESAMPLE, BLOCK))
    assert same_counts(got, want)


def test_damage_variance_mc_mse_identity():
    report = damage_variance_mc(TRI_TRUTH, 4, 6, 5.0, r=8,
                                replications=50, seed=7)
    reps = report.replications
    recon = report.estimate_var * (reps - 1) / reps \
        + (report.estimate_mean - report.truth_active_mean) ** 2
    assert report.estimate_mse == pytest.approx(recon, abs=1e-12)
    assert report.mean_se == pytest.approx(
        math.sqrt(report.estimate_var / reps), abs=1e-15)


def test_damage_variance_mc_threads_identical():
    kwargs = dict(n_a=4, n_b=5, t=5.0, r=6, replications=60, seed=31)
    one = damage_variance_mc(TRI_TRUTH, **kwargs, threads=1)
    four = damage_variance_mc(TRI_TRUTH, **kwargs, threads=4)
    assert one.estimate_mean == four.estimate_mean
    assert one.estimate_var == four.estimate_var
    assert one.estimate_mse == four.estimate_mse
    assert one.diagnostics == four.diagnostics


def test_damage_variance_mc_rejects():
    with pytest.raises(ValueError):
        damage_variance_mc(TRI_TRUTH, 5, 4, 5.0, r=4, replications=10, seed=0)
    with pytest.raises(ValueError):
        damage_variance_mc(TRI_TRUTH, 3, 4, 5.0, r=4, replications=1, seed=0)


# -- plug-in baseline ------------------------------------------------------

def test_plugin_estimate_closed_form():
    data = DamageData([1.0, 1.5, 2.5], [0.5, 3.0, 1.5, 2.0])
    est = plugin_estimate(data, t=2.0)
    assert est.rate == pytest.approx(3.0 / 5.0)
    # mean of min(duration, 2) = (0.5 + 2 + 1.5 + 2) / 4 = 1.5
    assert est.active_mean == pytest.approx(0.6 * 1.5)
    assert est.terminal_mean == pytest.approx(0.6 * (2.0 - 1.5))
    assert est.active_pmf(0) == pytest.approx(math.exp(-0.9))


def test_plugin_estimate_late_time():
    data = DamageData([2.0, 3.0], [1.0, 4.0, 2.5])
    est = plugin_estimate(data, t=100.0)
    # every duration is below t, so the integral is just the duration mean
    assert est.active_mean == pytest.approx(est.rate * np.mean(data.h_b))


def test_plugin_expectation_anchor():
    assert plugin_expectation(TRI_TRUTH, 5, 5.0) == pytest.approx(1.25, rel=1e-9)
    with pytest.raises(ValueError):
        plugin_expectation(TRI_TRUTH, 1, 5.0)
    # n_A = 2.5 returned 0.83
    for n_a in (2.5, True, np.float64(3.0)):
        with pytest.raises(TypeError, match="n_a must be an integer"):
            plugin_expectation(TRI_TRUTH, n_a, 5.0)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_plugin_estimate_rejects_bad_times(t):
    data = DamageData([1.0, 1.5, 2.5], [0.5, 3.0, 1.5, 2.0])
    with pytest.raises(ValueError, match="finite and non-negative"):
        plugin_estimate(data, t)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_plugin_expectation_rejects_bad_times(t):
    with pytest.raises(ValueError, match="finite and non-negative"):
        plugin_expectation(TRI_TRUTH, 3, t)


def test_plugin_variance_mc_mean_matches_expectation():
    n_a, reps = 6, 4000
    report = plugin_variance_mc(TRI_TRUTH, n_a, n_a, 5.0,
                                replications=reps, seed=55)
    expect = plugin_expectation(TRI_TRUTH, n_a, 5.0)
    assert abs(report.estimate_mean - expect) <= 4.0 * report.mean_se
    recon = report.estimate_var * (reps - 1) / reps \
        + (report.estimate_mean - report.truth_active_mean) ** 2
    assert report.estimate_mse == pytest.approx(recon, abs=1e-12)


# -- hybrid pmf ------------------------------------------------------------

def make_counts(pmf, t=5.0, r=100, seed=0):
    pmf = np.asarray(pmf, dtype=float)
    i = np.arange(len(pmf))
    return CountEstimates(
        t=t, r=r, seed=seed,
        active_mean=float(np.dot(i, pmf)), terminal_mean=0.0,
        active_pmf=pmf, terminal_pmf=pmf, diagnostics={})


def test_hybrid_pmf_splices_and_renormalizes():
    counts = make_counts([0.4, 0.35, 0.2, 0.05])
    plugin = plugin_estimate(DamageData([1.0, 2.0], [1.5, 2.5, 0.5]), t=5.0)
    out = hybrid_pmf(counts, plugin, i_max=8)
    assert out.shape == (9,)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    # head proportional to the resampled pmf, tail to the plug-in Poisson
    head = out[:4] / counts.active_pmf
    assert np.allclose(head, head[0])
    tail_ref = plugin.active_pmf(np.arange(4, 9))
    tail = out[4:] / tail_ref
    assert np.allclose(tail, tail[0])
    assert head[0] == pytest.approx(tail[0])


def test_hybrid_pmf_degenerate_and_rejects():
    counts = make_counts([0.5, 0.3, 0.2])
    plugin = plugin_estimate(DamageData([1.0, 2.0], [1.5, 2.5]), t=5.0)
    same = hybrid_pmf(counts, plugin, i_max=counts.n_a)
    assert np.allclose(same, counts.active_pmf)
    with pytest.raises(ValueError):
        hybrid_pmf(counts, plugin, i_max=1)


@pytest.mark.parametrize("bad", [2.5, 8.0, np.float64(8.0), True])
def test_hybrid_pmf_rejects_a_non_integer_i_max(bad):
    counts = make_counts([0.5, 0.3, 0.2])
    plugin = plugin_estimate(DamageData([1.0, 2.0], [1.5, 2.5]), t=5.0)
    with pytest.raises(TypeError, match=r"i_max must be an integer"):
        hybrid_pmf(counts, plugin, i_max=bad)
    assert hybrid_pmf(counts, plugin, i_max=np.int64(8)).tobytes() == \
        hybrid_pmf(counts, plugin, i_max=8).tobytes()
