import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from resamplekit import (KnownDistribution, empirical, exponential, normal,
                         parse_distribution, triangular, uniform)
from resamplekit.distributions import (binom_cdf, binom_pmf, binom_sf,
                                       from_dict, poisson_pmf, poisson_sf)

ALL = [exponential(2.0), normal(2.0, 3.0), uniform(1.0, 4.0), triangular(0.0, 2.0, 4.0)]


@pytest.mark.parametrize("text, expected", [
    ("exp:2", exponential(2.0)),
    ("exponential:0.5", exponential(0.5)),
    ("normal:2,3", normal(2.0, 3.0)),
    ("gauss: 0 , 1 ", normal(0.0, 1.0)),
    ("uniform:1,4", uniform(1.0, 4.0)),
    ("tri:0,2,4", triangular(0.0, 2.0, 4.0)),
])
def test_parse_distribution(text, expected):
    assert parse_distribution(text) == expected


@pytest.mark.parametrize("text", ["weibull:1", "exp", "exp:", "normal:a,b", ":1"])
def test_parse_distribution_rejects(text):
    with pytest.raises(ValueError):
        parse_distribution(text)


@pytest.mark.parametrize("obj, expected", [
    ({"family": "exp", "rate": 3}, exponential(3.0)),
    ({"family": "triangular", "lower": 0, "mode": 2, "upper": 4}, triangular(0, 2, 4)),
    ({"family": "empirical", "values": [1, 2, 3]}, empirical([1, 2, 3])),
])
def test_from_dict(obj, expected):
    assert from_dict(obj) == expected


@pytest.mark.parametrize("obj", [
    {"family": "exp", "rate": None},                 # JSON null
    {"family": "exp", "rate": [3]},                  # JSON list
    {"family": "normal", "mu": 0, "sigma": {"v": 1}},  # JSON object
    {"family": "uniform", "a": 0, "b": "wide"},
    {"family": "empirical", "values": 5},            # values not a list
    {"family": "empirical", "values": "123"},
    {"family": "empirical", "values": {"a": 1}},
    {"family": "empirical", "values": [1, None]},
    5, "exp", ["family", "exp"], None,               # not an object
], ids=repr)
def test_from_dict_rejects_with_value_error(obj):
    with pytest.raises(ValueError):
        from_dict(obj)


@pytest.mark.parametrize("family, params", [
    ("exponential", (-1.0,)),
    ("exponential", (0.0,)),
    ("normal", (0.0, 0.0)),
    ("uniform", (4.0, 1.0)),
    ("triangular", (0.0, 5.0, 4.0)),
    ("empirical", ()),
    ("weibull", (1.0,)),
    ("uniform", (-1e308, 1e308)),       # the width overflows
    ("triangular", (-1e308, 0.0, 1e308)),
])
def test_invalid_parameters(family, params):
    with pytest.raises(ValueError):
        KnownDistribution(family, params)


@pytest.mark.parametrize("family, params, name", [
    ("exponential", (math.nan,), "rate"),
    ("exponential", (math.inf,), "rate"),
    ("normal", (math.nan, 1.0), "mu"),
    ("normal", (0.0, math.inf), "sigma"),
    ("uniform", (-math.inf, 1.0), "a"),
    ("uniform", (0.0, math.inf), "b"),
    ("triangular", (0.0, math.nan, 4.0), "mode"),
    ("triangular", (0.0, 2.0, math.inf), "upper"),
    ("empirical", (1.0, math.nan), "value 1"),
    ("empirical", (-math.inf, 1.0), "value 0"),
])
def test_non_finite_parameters_are_named(family, params, name):
    with pytest.raises(ValueError, match=f"parameter {name} must be finite"):
        KnownDistribution(family, params)


@pytest.mark.parametrize("dist, mean, var", [
    (exponential(2.0), 0.5, 0.25),
    (normal(2.0, 3.0), 2.0, 9.0),
    (uniform(1.0, 4.0), 2.5, 0.75),
    (triangular(0.0, 2.0, 4.0), 2.0, 2.0 / 3.0),
])
def test_moments(dist, mean, var):
    assert dist.mean() == pytest.approx(mean)
    assert dist.var() == pytest.approx(var)


@pytest.mark.parametrize("dist", ALL)
def test_cdf_sf_complement(dist):
    xs = dist.ppf(np.linspace(0.01, 0.99, 21))
    np.testing.assert_allclose(dist.cdf(xs) + dist.sf(xs), 1.0, atol=1e-12)


@pytest.mark.parametrize("dist", ALL)
def test_ppf_inverts_cdf(dist):
    qs = np.array([0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
    np.testing.assert_allclose(dist.cdf(dist.ppf(qs)), qs, atol=1e-9)


@pytest.mark.parametrize("dist", ALL)
def test_pdf_is_cdf_derivative(dist):
    """Central finite difference of the cdf reproduces the density."""
    xs = dist.ppf(np.array([0.2, 0.5, 0.8]))
    h = 1e-6
    approx = (dist.cdf(xs + h) - dist.cdf(xs - h)) / (2 * h)
    np.testing.assert_allclose(dist.pdf(xs), approx, rtol=1e-4)


@pytest.mark.parametrize("dist", ALL)
def test_sample_matches_cdf(dist):
    draws = dist.sample(np.random.default_rng(5), 4000)
    assert stats.kstest(draws, dist.cdf).pvalue > 0.01


@pytest.mark.parametrize("dist", ALL)
def test_sample_moments(dist):
    draws = dist.sample(np.random.default_rng(11), 20000)
    se = np.sqrt(dist.var() / draws.size)
    assert abs(draws.mean() - dist.mean()) < 5 * se


def test_bounded_support_endpoints():
    for dist in (uniform(1.0, 4.0), triangular(0.0, 2.0, 4.0)):
        lo, hi = dist.support()
        assert dist.cdf(lo) == 0.0
        assert dist.cdf(hi) == 1.0
    lo, hi = exponential(1.0).support()
    assert lo == 0.0 and np.isinf(hi)


# -- empirical ------------------------------------------------------------

def test_empirical_cdf_steps():
    d = empirical([1.0, 2.0, 2.0, 5.0])
    assert d.cdf(0.5) == 0.0
    assert d.cdf(1.0) == 0.25
    assert d.cdf(1.5) == 0.25
    assert d.cdf(2.0) == 0.75
    assert d.cdf(5.0) == 1.0
    assert d.sf(2.0) == 0.25


def test_empirical_ppf_order_statistics():
    d = empirical([3.0, 1.0, 2.0])
    assert d.ppf(0.01) == 1.0
    assert d.ppf(1.0 / 3.0) == pytest.approx(1.0)
    assert d.ppf(0.5) == 2.0
    assert d.ppf(1.0) == 3.0


def test_empirical_sample_support_and_moments():
    values = [1.0, 2.0, 2.0, 5.0]
    d = empirical(values)
    draws = d.sample(np.random.default_rng(2), 1000)
    assert set(np.unique(draws)) <= set(values)
    assert d.mean() == pytest.approx(np.mean(values))
    assert d.var() == pytest.approx(np.var(values))
    assert not d.is_continuous
    with pytest.raises(ValueError):
        d.pdf(1.0)


# -- bit-for-bit against scipy.stats ---------------------------------------

ORACLE = settings(derandomize=True, deadline=None, max_examples=150,
                  database=None)
MODERATE = st.floats(-1e3, 1e3, allow_nan=False)
SCALE = st.floats(1e-3, 1e2)
UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


def scipy_frozen(dist):
    """The scipy.stats distribution the library formulas reproduce."""
    p = dist.params
    if dist.family == "exponential":
        return stats.expon(scale=1.0 / p[0])
    if dist.family == "normal":
        return stats.norm(p[0], p[1])
    if dist.family == "uniform":
        return stats.uniform(loc=p[0], scale=p[1] - p[0])
    lo, mode, hi = p
    return stats.triang(c=(mode - lo) / (hi - lo), loc=lo, scale=hi - lo)


@st.composite
def laws(draw):
    family = draw(st.sampled_from(["exponential", "normal", "uniform",
                                   "triangular"]))
    if family == "exponential":
        return exponential(draw(SCALE))
    if family == "normal":
        return normal(draw(MODERATE), draw(SCALE))
    lo, width = draw(MODERATE), draw(SCALE)
    if family == "uniform":
        return uniform(lo, lo + width)
    # the mode anywhere, at either end included
    return triangular(lo, lo + draw(UNIT) * width, lo + width)


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (got, want)


@ORACLE
@given(dist=laws(), xs=st.lists(MODERATE, max_size=8),
       qs=st.lists(UNIT | st.floats(-0.5, 1.5), max_size=8))
def test_formulas_equal_scipy_stats_bit_for_bit(dist, xs, qs):
    ref = scipy_frozen(dist)
    lo, hi = dist.support()
    mid = dist.ppf(0.5)
    points = np.array(xs + [lo, hi, mid, -np.inf, np.inf, np.nan,
                            *dist.params, np.nextafter(lo, -np.inf),
                            np.nextafter(hi, np.inf)])
    for name in ("cdf", "sf", "pdf"):
        assert_same_bits(getattr(dist, name)(points), getattr(ref, name)(points))
        for x in (float(points[0]), lo, hi, mid, 1):  # scalars: np.float64
            assert_same_bits(getattr(dist, name)(x), getattr(ref, name)(x))
    quantiles = np.array(qs + [0.0, 1.0, 0.5, -0.1, 1.1, np.nan, 1e-300])
    assert_same_bits(dist.ppf(quantiles), ref.ppf(quantiles))
    assert_same_bits(dist.ppf(0.25), ref.ppf(0.25))
    assert_same_bits(dist.mean(), float(ref.mean()))
    assert_same_bits(dist.var(), float(ref.var()))
    assert_same_bits(dist.support(), tuple(float(v) for v in ref.support()))


COUNTS = st.integers(0, 80)
PROBABILITY = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0) \
    | st.floats(0.0, 1e-6)


@ORACLE
@given(n=COUNTS, p=PROBABILITY)
def test_binomial_helpers_equal_scipy_stats(n, p):
    k = np.concatenate([np.arange(-2.0, n + 3), [-np.inf, np.inf]])
    assert_same_bits(binom_sf(k, n, p), stats.binom.sf(k, n, p))
    assert_same_bits(binom_cdf(k, n, p), stats.binom.cdf(k, n, p))
    k_pmf = np.concatenate([np.arange(-2.0, n + 3), [0.5, n - 0.5]])
    assert_same_bits(binom_pmf(k_pmf, n, p), stats.binom.pmf(k_pmf, n, p))
    for j in (-1, 0, n // 2, n, n + 1):
        assert_same_bits(binom_sf(j, n, p), stats.binom.sf(j, n, p))
        assert_same_bits(binom_cdf(j, n, p), stats.binom.cdf(j, n, p))
        assert_same_bits(binom_pmf(j, n, p), stats.binom.pmf(j, n, p))
    # k fixed against an array of n, as the capped expectation calls it
    ns = np.arange(0, n + 1)
    assert_same_bits(binom_pmf(n // 2, ns, p), stats.binom.pmf(n // 2, ns, p))


def test_binomial_pmf_stays_finite_at_large_n():
    """comb(n, n/2) overflows a float near n = 1030; the pmf must not."""
    n = np.arange(1000, 1201)
    for p in (0.01, 0.4, 0.999):
        got = binom_pmf(n // 2, n, p)
        assert np.isfinite(got).all()
        assert_same_bits(got, stats.binom.pmf(n // 2, n, p))


@pytest.mark.parametrize("dist", [
    exponential(0.7), normal(-1.0, 2.0), uniform(-3.0, 2.0),
    triangular(-2.0, -2.0, 1.0), triangular(-2.0, 1.0, 1.0),
    triangular(-2.0, 0.5, 3.0), empirical([-1.0, 0.5, 2.0, 2.0])], ids=repr)
def test_limited_mean_matches_quadrature(dist):
    """E[min(D, t)] = t - int_-inf^t F, at t below, at, inside and above
    each corner of the law."""
    from scipy import integrate
    lo, hi = dist.support()
    corners = sorted({v for v in (*dist.params, lo, hi) if math.isfinite(v)})
    times = {corners[0] - 1.0, corners[-1] + 1.0, *corners}
    times |= {(a + b) / 2 for a, b in zip(corners, corners[1:])}
    for t in sorted(times):
        start = max(lo, t - 40.0 * math.sqrt(dist.var()) - 1.0)
        pts = [v for v in corners if start < v < t]
        area = integrate.quad(dist.cdf, start, t, points=pts or None,
                              limit=200, epsabs=0.0, epsrel=1e-13)[0] \
            if t > start else 0.0
        assert dist.limited_mean(t) == pytest.approx(t - area, rel=1e-12,
                                                     abs=1e-13), t
    assert dist.limited_mean(1e6) == pytest.approx(dist.mean(), rel=1e-14)


@ORACLE
@given(mu=st.sampled_from([0.0]) | st.floats(0.0, 200.0)
       | st.floats(0.0, 1e-6))
def test_poisson_helpers_equal_scipy_stats(mu):
    k = np.concatenate([np.arange(-2.0, 120), [-np.inf, 0.5, 2.5]])
    assert_same_bits(poisson_pmf(k, mu), stats.poisson.pmf(k, mu))
    k_sf = np.append(k, np.inf)
    assert_same_bits(poisson_sf(k_sf, mu), stats.poisson.sf(k_sf, mu))
    for j in (-1, 0, 3):
        assert_same_bits(poisson_pmf(j, mu), stats.poisson.pmf(j, mu))
        assert_same_bits(poisson_sf(j, mu), stats.poisson.sf(j, mu))


# -- how the scipy.special ufuncs load -------------------------------------
# Each probe runs in a fresh interpreter, so that resamplekit is imported
# before scipy.special (conftest has imported both here).  SCIPY_ARRAY_API
# is dropped: under it scipy.special exports wrappers, not the ufuncs.

def run_probe(script):
    env = {k: v for k, v in os.environ.items() if k != "SCIPY_ARRAY_API"}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout


HANDOFF_PROBE = """
import sys
from resamplekit import distributions, normal
from resamplekit.distributions import binom_cdf, binom_pmf, poisson_sf
assert "scipy.special" not in sys.modules
import numpy as np, scipy.special, scipy.stats, scipy.integrate
special = sys.modules["scipy.special"]
assert special is scipy.special and hasattr(special, "__file__")
assert distributions._ufuncs is special._ufuncs
for name in distributions._UFUNCS:
    own = getattr(special._ufuncs if name.startswith("_") else special, name)
    assert getattr(distributions._ufuncs, name) is own, name
x, k = np.linspace(-4.0, 6.0, 41), np.arange(-1.0, 14.0)
assert (scipy.stats.norm.cdf(x, 0.5, 2.0) == normal(0.5, 2.0).cdf(x)).all()
assert (scipy.stats.binom.pmf(k, 12, 0.3) == binom_pmf(k, 12, 0.3)).all()
assert (scipy.stats.binom.cdf(k, 12, 0.3) == binom_cdf(k, 12, 0.3)).all()
assert (scipy.stats.poisson.sf(k, 3.7) == poisson_sf(k, 3.7)).all()
assert abs(scipy.integrate.quad(lambda t: t * t, 0.0, 1.0)[0] - 1 / 3) < 1e-14
"""


def test_scipy_special_imported_later_reuses_the_bound_ufuncs():
    """Importing scipy.special, scipy.stats and scipy.integrate after
    resamplekit runs the real package, whose exports are the very ufuncs
    resamplekit bound."""
    run_probe(HANDOFF_PROBE)


REFUSE_SPECIAL_UFUNCS = """
import importlib.abc, sys

class Refuse(importlib.abc.MetaPathFinder):
    refused = 0

    def find_spec(self, name, path, target=None):
        special = sys.modules.get("scipy.special")
        if (name == "scipy.special._special_ufuncs" and special is not None
                and not hasattr(special, "__file__")):
            Refuse.refused += 1
            raise ImportError(name)
        return None

sys.meta_path.insert(0, Refuse())
"""

ROUTE_PROBE = """
import json, sys
import numpy as np
from resamplekit import exponential, normal
from resamplekit.distributions import binom_cdf, poisson_sf
special = sys.modules.get("scipy.special")
x, k = np.linspace(-4.0, 6.0, 41), np.arange(-1.0, 14.0)
values = [normal(0.5, 2.0).cdf(x), exponential(2.0).cdf(x),
          binom_cdf(k, 12, 0.3), poisson_sf(k, 3.7)]
print(json.dumps({
    "special": None if special is None else hasattr(special, "__file__"),
    "refused": getattr(sys.meta_path[0], "refused", None),
    "bits": [np.asarray(v).tobytes().hex() for v in values]}))
"""


def test_a_refused_compiled_module_falls_back_to_the_full_import():
    """When the bare route fails, import takes scipy.special's own
    ``__init__``, leaves no stub behind, and every law keeps its bits."""
    direct = json.loads(run_probe(ROUTE_PROBE))
    fallback = json.loads(run_probe(REFUSE_SPECIAL_UFUNCS + ROUTE_PROBE))
    assert (direct["special"], direct["refused"]) == (None, None)
    assert (fallback["special"], fallback["refused"]) == (True, 1)
    assert fallback["bits"] == direct["bits"]
