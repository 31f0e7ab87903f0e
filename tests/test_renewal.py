"""Tests for the two-renewal-process exceedance comparison."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from resamplekit._streams import BLOCK
from resamplekit.distributions import exponential, normal, triangular, uniform
from resamplekit.renewal import (
    GridConvolutionKit,
    NormalConvolutionKit,
    RenewalLayout,
    RenewalPair,
    analytic_theta_normal,
    estimate_exceedance,
    exceedance_variance,
    mu11_alpha,
    plugin_baseline,
)
from resamplekit.pairs import AlphaPair
from resamplekit.samples import InfeasibleLayoutError

from helpers import DirectGridKit, plugin_baseline_oracle, var_se


# -- layout and pair containers -------------------------------------------

def test_layout_threshold():
    lay = RenewalLayout(n_x=10, m_x=5, n_y=10, m_y=3)
    assert lay.threshold == 2


@pytest.mark.parametrize("n_x, m_x, n_y, m_y, exc", [
    (10, 0, 10, 3, ValueError),
    (10, 5, 10, -1, ValueError),
    (9, 5, 10, 3, InfeasibleLayoutError),
    (10, 5, 5, 3, InfeasibleLayoutError),
])
def test_layout_rejects(n_x, m_x, n_y, m_y, exc):
    with pytest.raises(exc):
        RenewalLayout(n_x, m_x, n_y, m_y)


@pytest.mark.parametrize("sizes, exc", [
    ((10, 2.5, 10, 1), TypeError), ((10, True, 10, 1), TypeError),
    ((10, 2, 10, 1.0), TypeError), ((10.0, 2, 10, 1), TypeError),
    ((10, 2, -10, 0), ValueError)])
def test_layout_counts_are_checked_not_truncated(sizes, exc):
    """RenewalLayout(10, 2.5, 10, 1) was accepted."""
    with pytest.raises(exc):
        RenewalLayout(*sizes)


def test_pair_counts_are_checked_not_truncated():
    h = np.arange(1.0, 11.0)
    for m_x, m_y in [(2.5, 1), (True, 1), (2, 1.0)]:
        with pytest.raises(TypeError):
            RenewalPair(h, h, m_x, m_y)
    for m_x, k in [(4, True), (4, 1.0), (4.5, 1)]:
        with pytest.raises(TypeError):
            RenewalPair.for_threshold(h, h, m_x, k)


def test_pair_for_threshold_roundtrip():
    h_x = np.arange(1.0, 11.0)
    h_y = np.arange(1.0, 9.0)
    pair = RenewalPair.for_threshold(h_x, h_y, m_x=4, k=1)
    assert pair.m_y == 3
    assert pair.layout.threshold == 1
    with pytest.raises(ValueError):
        RenewalPair.for_threshold(h_x, h_y, m_x=4, k=5)
    with pytest.raises(ValueError):
        pair.h_x[0] = 99.0


def test_pair_negative_values_warn():
    with pytest.warns(UserWarning, match="negative"):
        RenewalPair([-0.5, 1.0, 2.0, 3.0], [1.0, 2.0], m_x=2, m_y=1)


def test_pair_rejects_shapes():
    with pytest.raises(ValueError):
        RenewalPair([], [1.0, 2.0], m_x=1, m_y=1)
    with pytest.raises(InfeasibleLayoutError):
        RenewalPair([1.0, 2.0], [1.0, 2.0], m_x=2, m_y=1)


# -- resampling estimator --------------------------------------------------

def test_estimate_deterministic():
    pair = RenewalPair([3.0, 1.0, 4.0, 2.0], [2.5, 0.5, 3.5, 1.5],
                       m_x=2, m_y=1)
    a = estimate_exceedance(pair, r=200, seed=4, keep_values=True)
    b = estimate_exceedance(pair, r=200, seed=4, keep_values=True)
    assert a.estimate == b.estimate
    assert np.array_equal(a.values, b.values)
    assert set(np.unique(a.values)) <= {0.0, 1.0}
    assert a.estimate == pytest.approx(a.values.mean())
    with pytest.raises(ValueError):
        estimate_exceedance(pair, r=0, seed=4)


def test_estimate_trivial_cases():
    # empty maintenance sum: indicator is constant one
    pair0 = RenewalPair([1.0, 2.0, 3.0, 4.0], [1.0, 2.0], m_x=2, m_y=0)
    assert estimate_exceedance(pair0, r=64, seed=1).estimate == 1.0
    # every X exceeds every Y with equal counts: dominance
    pair1 = RenewalPair([10.0, 11.0, 12.0, 13.0], [1.0, 2.0, 0.5, 1.5],
                        m_x=2, m_y=2)
    assert estimate_exceedance(pair1, r=64, seed=1).estimate == 1.0


def exact_exceedance(pair):
    """Average the comparison over every pair of index subsets."""
    hits = total = 0
    for sx in itertools.combinations(range(len(pair.h_x)), pair.m_x):
        dx = pair.h_x[list(sx)].sum()
        for sy in itertools.combinations(range(len(pair.h_y)), pair.m_y):
            hits += int(dx > pair.h_y[list(sy)].sum())
            total += 1
    return hits / total


def test_estimate_matches_exhaustive_enumeration():
    pair = RenewalPair([3.0, 1.0, 4.0, 2.0], [2.9, 0.5, 3.5, 1.5],
                       m_x=2, m_y=1)
    exact = exact_exceedance(pair)
    assert 0.0 < exact < 1.0
    r = 20_000
    est = estimate_exceedance(pair, r=r, seed=12)
    se = math.sqrt(exact * (1.0 - exact) / r)
    assert abs(est.estimate - exact) <= 4.0 * se


@pytest.mark.filterwarnings("ignore:negative inter-renewal")
def test_estimate_symmetric_normals_grand_mean():
    # identically distributed processes: Theta = 1/2 by symmetry
    rng = np.random.default_rng(321)
    means = []
    for rep in range(200):
        h_x = rng.normal(2.0, 1.0, 10)
        h_y = rng.normal(2.0, 1.0, 10)
        pair = RenewalPair(h_x, h_y, m_x=5, m_y=5)
        means.append(estimate_exceedance(pair, r=50, seed=rep).estimate)
    means = np.asarray(means)
    se = means.std(ddof=1) / math.sqrt(len(means))
    assert abs(means.mean() - 0.5) <= 4.0 * se


# -- normal convolution kit ------------------------------------------------

def test_normal_theta_closed_form():
    kit = NormalConvolutionKit(2.0, 1.0, 1.5, 0.5, m_x=4, m_y=3)
    mean = 4 * 2.0 - 3 * 1.5
    sd = math.sqrt(4 * 1.0 + 3 * 0.25)
    # independent route: plain error-function arithmetic
    expected = 0.5 * (1.0 + math.erf(mean / (sd * math.sqrt(2.0))))
    assert kit.theta() == pytest.approx(expected, abs=1e-12)
    assert analytic_theta_normal(2.0, 1.0, 1.5, 0.5, 4, 3) == kit.theta()


def test_normal_theta_symmetry_and_threshold_monotone():
    assert analytic_theta_normal(2, 1, 2, 1, 5, 5) == pytest.approx(0.5)
    thetas = [analytic_theta_normal(2, 1, 2, 1, 5, 5 - k) for k in range(4)]
    assert all(a < b for a, b in zip(thetas, thetas[1:]))


def test_normal_mu11_degenerate_overlaps():
    kit = NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, m_x=5, m_y=4)
    theta = kit.theta()
    # full overlap: both realizations identical, so mu11 = E[phi] = Theta
    assert kit.mu11(5, 4) == pytest.approx(theta, abs=1e-12)
    # no overlap: independent realizations, so mu11 = Theta^2
    assert kit.mu11(0, 0) == pytest.approx(theta * theta, abs=1e-9)


def test_normal_mu11_frechet_bounds():
    kit = NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, m_x=5, m_y=4)
    theta = kit.theta()
    lo = max(0.0, 2.0 * theta - 1.0)
    for a_x in range(6):
        for a_y in range(5):
            val = kit.mu11(a_x, a_y)
            assert lo - 1e-9 <= val <= theta + 1e-9


@pytest.mark.parametrize("a_x, a_y", [(2, 2), (4, 1), (1, 3)])
def test_normal_mu11_vs_conditional_mc(a_x, a_y):
    kit = NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, m_x=5, m_y=5)
    # simulate the shared sum once and two fresh complements per draw
    mc, vc = kit._com(a_x, a_y)
    md, vd = kit._dif(a_x, a_y)
    rng = np.random.default_rng(a_x * 100 + a_y)
    n = 400_000
    com = rng.normal(mc, math.sqrt(vc), n)
    d1 = rng.normal(md, math.sqrt(vd), n)
    d2 = rng.normal(md, math.sqrt(vd), n)
    both = ((d1 < com) & (d2 < com)).astype(float)
    se = both.std(ddof=1) / math.sqrt(n)
    assert abs(kit.mu11(a_x, a_y) - both.mean()) <= 4.0 * se


def test_normal_kit_rejects():
    with pytest.raises(ValueError):
        NormalConvolutionKit(2.0, 0.0, 2.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, 0, 5)
    kit = NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        kit.mu11(6, 0)


KITS = [lambda m_x, m_y: NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, m_x, m_y),
        lambda m_x, m_y: GridConvolutionKit(exponential(1.0), exponential(2.0),
                                            m_x, m_y, points=64)]


@pytest.mark.parametrize("make", KITS, ids=["normal", "grid"])
def test_kit_counts_are_checked_not_truncated(make):
    """Both kits took m_X = 2.5 as 2 and m_X = True as 1, and the normal
    kit's mu11(1.5, 1) returned a number."""
    for m_x, m_y, exc in [(2.5, 1, TypeError), (True, 1, TypeError),
                          (2, np.float64(1.0), TypeError), (2, -1, ValueError)]:
        with pytest.raises(exc):
            make(m_x, m_y)
    kit = make(5, 4)
    for a, exc in [((1.5, 1), TypeError), ((1, True), TypeError),
                   ((-1, 0), ValueError), ((0, 5), ValueError)]:
        with pytest.raises(exc):
            kit.mu11(*a)
        with pytest.raises(exc):
            mu11_alpha(kit, a)
    assert kit.mu11(np.int64(2), 1) == kit.mu11(2, 1)


# -- grid convolution kit --------------------------------------------------

def test_grid_matches_normal_kit():
    nk = NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, 5, 4)
    gk = GridConvolutionKit(normal(2.0, 1.0), normal(2.0, 1.0), 5, 4,
                            points=16384)
    assert gk.theta() == pytest.approx(nk.theta(), abs=5e-7)
    for a in [(0, 0), (2, 2), (5, 4), (4, 1)]:
        assert gk.mu11(*a) == pytest.approx(nk.mu11(*a), abs=5e-7)


def test_grid_default_resolution():
    nk = NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, 5, 5)
    gk = GridConvolutionKit(normal(2.0, 1.0), normal(2.0, 1.0), 5, 5)
    assert gk.theta() == pytest.approx(nk.theta(), abs=5e-4)
    assert gk.mu11(2, 3) == pytest.approx(nk.mu11(2, 3), abs=5e-4)


def test_grid_exponential_beta_identity():
    # equal rates: D/(D+S) is Beta(m_x, m_y), so Theta = P{Beta > 1/2}
    gk = GridConvolutionKit(exponential(1.0), exponential(1.0), 3, 2)
    exact = float(stats.beta.sf(0.5, 3, 2))
    assert gk.theta() == pytest.approx(exact, abs=5e-5)


def test_grid_uniform_support_handling():
    gk = GridConvolutionKit(uniform(0.0, 1.0), uniform(0.0, 2.0), 2, 1)
    # P{U1 + U2 > V} with U ~ U(0,1), V ~ U(0,2): integrate directly
    # P = E[P{V < s}] = E[min(s,2)/2] = E[s]/2 = 0.5 for s = U1+U2 <= 2
    assert gk.theta() == pytest.approx(0.5, abs=1e-3)


def test_grid_kit_rejects():
    with pytest.raises(ValueError):
        GridConvolutionKit(exponential(1.0), exponential(1.0), 0, 1)
    gk = GridConvolutionKit(exponential(1.0), exponential(1.0), 2, 1)
    with pytest.raises(ValueError):
        gk.mu11(3, 0)
    for points in (0, 1, -5):
        with pytest.raises(ValueError, match="points >= 2"):
            GridConvolutionKit(exponential(1.0), exponential(2.0), 2, 1,
                               points=points)
    # a float is no count, as for m_X (2.5 built a kit)
    for points in (2.5, math.nan, True, np.float64(64.0)):
        with pytest.raises(TypeError, match="points"):
            GridConvolutionKit(exponential(1.0), exponential(2.0), 2, 1,
                               points=points)


LAWS = st.one_of(
    st.floats(0.25, 4.0).map(exponential),
    st.tuples(st.floats(-1.0, 2.0), st.floats(0.1, 3.0)).map(
        lambda p: uniform(p[0], p[0] + p[1])),
    st.tuples(st.floats(-1.0, 2.0), st.floats(0.0, 1.0),
              st.floats(0.1, 3.0)).map(
        lambda p: triangular(p[0], p[0] + p[1] * p[2], p[0] + p[2])),
    st.tuples(st.floats(-1.0, 3.0), st.floats(0.2, 2.0)).map(
        lambda p: normal(*p)))


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(x=LAWS, y=LAWS, m_x=st.integers(1, 6), m_y=st.integers(0, 6),
       points=st.integers(256, 1024))
def test_grid_kit_equals_direct_convolution(x, y, m_x, m_y, points):
    """The two-spectra kit reads the lattice laws of the direct
    np.convolve powers: theta and every mu11 within 1e-12."""
    kit = GridConvolutionKit(x, y, m_x, m_y, points=points)
    direct = DirectGridKit(x, y, m_x, m_y, points=points)
    assert kit.theta() == pytest.approx(direct.theta(), rel=0, abs=1e-12)
    for a_x, a_y in itertools.product(range(m_x + 1), range(m_y + 1)):
        assert kit.mu11(a_x, a_y) == pytest.approx(direct.mu11(a_x, a_y),
                                                   rel=0, abs=1e-12)


# -- mu11 dispatch ---------------------------------------------------------

def test_mu11_alpha_dispatch():
    kit = NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, 5, 5)
    direct = kit.mu11(2, 3)
    assert mu11_alpha(kit, AlphaPair((2, 3))) == direct
    assert mu11_alpha(kit, (2, 3)) == direct
    with pytest.raises(ValueError):
        mu11_alpha(kit, (1, 2, 3))


# -- exact variance --------------------------------------------------------

def test_variance_assembly_identity():
    kit = NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, 5, 4)
    lay = RenewalLayout(10, 5, 10, 4)
    rep = exceedance_variance(lay, kit, r=25)
    total_p = sum(row.probability for row in rep.rows)
    assert total_p == pytest.approx(1.0, abs=1e-12)
    mu11 = sum(row.probability * row.moment for row in rep.rows)
    assert rep.mu11 == pytest.approx(mu11, abs=1e-15)
    assert {p["method"] for p in rep.to_dict()["pairs"]} == {"convolution-kit"}
    recon = rep.mu / rep.r + (rep.r - 1) / rep.r * mu11 - rep.mu ** 2
    assert rep.variance == pytest.approx(recon, abs=1e-15)


def test_variance_r_one_is_bernoulli():
    kit = NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, 5, 4)
    rep = exceedance_variance(RenewalLayout(10, 5, 10, 4), kit, r=1)
    theta = kit.theta()
    assert rep.variance == pytest.approx(theta * (1.0 - theta), abs=1e-12)


def test_variance_published_table_anchors():
    # n = 10, m = 5, N(2,1) components, resampling limit r -> infinity
    big_r = 10 ** 9
    for k, expected in [(0, 0.0842), (1, 0.0532), (2, 0.0141), (3, 0.0012)]:
        kit = NormalConvolutionKit(2, 1, 2, 1, 5, 5 - k)
        rep = exceedance_variance(RenewalLayout(10, 5, 10, 5 - k), kit, big_r)
        assert rep.variance == pytest.approx(expected, abs=5e-5)
    kit = NormalConvolutionKit(2, 1, 2, 1, 6, 3)
    rep = exceedance_variance(RenewalLayout(12, 6, 12, 3), kit, big_r)
    assert rep.variance == pytest.approx(0.0028, abs=5e-5)


def test_variance_empty_maintenance():
    kit = NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, 3, 0)
    rep = exceedance_variance(RenewalLayout(6, 3, 6, 0), kit, r=10)
    assert rep.variance == 0.0
    assert rep.mu == 1.0


def test_variance_accepts_pair_and_checks_kit():
    pair = RenewalPair(np.arange(1.0, 11.0), np.arange(1.0, 11.0),
                       m_x=5, m_y=4)
    kit = NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, 5, 4)
    rep = exceedance_variance(pair, kit, r=10)
    assert rep.variance > 0.0
    wrong = NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, 5, 3)
    with pytest.raises(ValueError):
        exceedance_variance(pair, wrong, r=10)
    with pytest.raises(ValueError):
        exceedance_variance(pair, kit, r=0)
    with pytest.raises(TypeError):
        exceedance_variance("sizes", kit, r=10)


@pytest.mark.filterwarnings("ignore:negative inter-renewal")
def test_variance_matches_empirical_replications():
    # small configuration so the loop stays fast: n=6, m=3, K=1
    m_x, m_y, n, r = 3, 2, 6, 3
    kit = NormalConvolutionKit(2.0, 1.0, 2.0, 1.0, m_x, m_y)
    rep = exceedance_variance(RenewalLayout(n, m_x, n, m_y), kit, r=r)
    rng = np.random.default_rng(2024)
    reps = 12_000
    estimates = np.empty(reps)
    for i in range(reps):
        pair = RenewalPair(rng.normal(2.0, 1.0, n), rng.normal(2.0, 1.0, n),
                           m_x=m_x, m_y=m_y)
        estimates[i] = estimate_exceedance(pair, r=r, seed=i).estimate
    emp = float(estimates.var(ddof=1))
    assert abs(rep.variance - emp) <= 4.0 * var_se(estimates)


# -- plug-in baseline ------------------------------------------------------

def test_plugin_baseline_symmetric_bias_zero():
    lay = RenewalLayout(8, 4, 8, 4)
    report = plugin_baseline(lay, normal(2.0, 1.0), normal(2.0, 1.0),
                             r=200, replications=600, seed=99)
    assert report.theta == pytest.approx(0.5)
    assert abs(report.bias) <= 4.0 * report.mean_se
    recon = report.variance * (report.replications - 1) / report.replications \
        + report.bias ** 2
    assert report.mse == pytest.approx(recon, abs=1e-12)


PLUGIN_BASELINES = [
    (RenewalLayout(8, 4, 8, 3), 50, 40, 5, normal(2.0, 1.0), normal(1.5, 0.5)),
    (RenewalLayout(6, 2, 4, 0), 7, 25, 2**40 + 3, normal(2.0, 1.0),
     normal(1.5, 0.5)),
    # more replications than one batch of keys
    (RenewalLayout(4, 2, 4, 1), 3, BLOCK + 3, 12, normal(2.0, 1.0),
     normal(1.5, 0.5)),
    # r = 1000 sums four replications per array pass: three passes
    (RenewalLayout(5, 2, 6, 3), 1000, 10, 8, exponential(1.0),
     exponential(2.0)),
    # sums of nine and twelve terms
    (RenewalLayout(30, 9, 24, 12), 40, 30, 2**33, normal(2.0, 1.0),
     normal(1.5, 0.5)),
    (RenewalLayout(3, 1, 2, 1), BLOCK + 1, 3, 0, exponential(1.0),
     normal(1.0, 0.3))]


@pytest.mark.parametrize(
    "lay, r, replications, seed, x, y", PLUGIN_BASELINES,
    ids=[f"lay{i}-{r}-{n}-{seed}" for i, (_, r, n, seed, _, _)
         in enumerate(PLUGIN_BASELINES)])
def test_plugin_baseline_equals_per_replication_oracle(lay, r, replications,
                                                       seed, x, y):
    got = plugin_baseline(lay, x, y, r=r, replications=replications,
                          seed=seed, theta=0.6)
    assert got == plugin_baseline_oracle(lay, x, y, r, replications, seed,
                                         0.6)


def test_plugin_baseline_deterministic_and_theta_handling():
    lay = RenewalLayout(8, 4, 8, 3)
    a = plugin_baseline(lay, normal(2.0, 1.0), normal(2.0, 1.0),
                        r=50, replications=40, seed=5)
    b = plugin_baseline(lay, normal(2.0, 1.0), normal(2.0, 1.0),
                        r=50, replications=40, seed=5)
    assert a == b
    assert a.theta == pytest.approx(analytic_theta_normal(2, 1, 2, 1, 4, 3))
    passed = plugin_baseline(lay, normal(2.0, 1.0), normal(2.0, 1.0),
                             r=50, replications=40, seed=5, theta=0.9)
    assert passed.theta == 0.9
    with pytest.raises(ValueError):
        plugin_baseline(lay, exponential(1.0), exponential(1.0),
                        r=50, replications=40, seed=5)
    with pytest.raises(ValueError):
        plugin_baseline(lay, normal(2.0, 1.0), normal(2.0, 1.0),
                        r=50, replications=1, seed=5)
    # bias and MSE were reported against a Theta outside [0, 1]
    for theta in (2.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="theta must be"):
            plugin_baseline(lay, exponential(1.0), exponential(1.0),
                            r=50, replications=4, seed=5, theta=theta)
