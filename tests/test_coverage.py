"""Tests for quantile-interval coverage analysis of order functionals."""

import functools
import itertools
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy import stats

import resamplekit.resampling as resampling_module
from resamplekit._streams import BLOCK, block_count
from resamplekit.budget import BudgetExceededError
from resamplekit.coverage import (
    OrderFunctional,
    Protocol,
    WVector,
    alpha_floor,
    coverage_R,
    coverage_conditional,
    protocol_from_w,
    protocol_table,
    q_given_ordering,
    resampling_interval,
    rho,
    w_from_protocol,
    w_vector,
)
import resamplekit.coverage as coverage_module
from resamplekit.coverage import _hit_law, _NumericOrderingLaw
from resamplekit.distributions import (empirical, exponential, normal,
                                      parse_distribution, uniform)
from resamplekit.samples import SampleSet
from resamplekit.systems import parse_system
from resamplekit.wave import wave_estimate

from helpers import q_oracle

MIN_RACE = "cmp(x3 < min(x1, x2))"   # phi = 1{x3 is the pooled minimum}


@pytest.fixture(scope="module")
def min_race():
    return OrderFunctional(parse_system(MIN_RACE))


# -- order functional validation ------------------------------------------

def test_order_functional_accepts_min_race(min_race):
    assert min_race.m == 3


@pytest.mark.parametrize("text", [
    "cmp(sum(x1, x2) < x3)",     # sums change under monotone maps
    "ind(x1 > t)",               # thresholds against constants too
    "min(x1, x2)",               # root must be an indicator comparison
    "cmp(min(cmp(x1 < x2), x3) < x4)",   # a 0/1 value ranked against data
])
def test_order_functional_rejects(text):
    spec = parse_system(text, params={"t": 1.0}) if "t" in text \
        else parse_system(text)
    with pytest.raises(ValueError):
        OrderFunctional(spec)


def test_order_functional_monotone_invariance(min_race):
    rng = np.random.default_rng(8)
    from resamplekit.systems import evaluate
    for _ in range(50):
        x = tuple(rng.normal(size=3))
        stretched = tuple(math.exp(v) for v in x)   # order-preserving
        assert evaluate(min_race.spec, x) == evaluate(min_race.spec, stretched)


# -- ordering encodings ----------------------------------------------------

WORKED_W = (2, 2, 1, 2, 3, 1, 2, 2, 3, 1)


def test_w_vector_properties():
    w = WVector(WORKED_W)
    assert w.m == 3
    assert w.sizes == (3, 5, 2)


@pytest.mark.parametrize("bad", [(), (1, 3), (2, 2)])
def test_w_vector_rejects(bad):
    with pytest.raises(ValueError):
        WVector(bad)


def test_protocol_worked_example():
    proto = protocol_from_w(WVector(WORKED_W))
    assert proto.counts == ((0, 0, 1, 1, 0, 1), (4, 3, 1))
    assert proto.m == 3
    assert w_from_protocol(proto).w == WORKED_W


def test_protocol_row_invariants():
    proto = protocol_from_w(WVector(WORKED_W))
    sizes = WVector(WORKED_W).sizes
    for level, row in enumerate(proto.counts, start=1):
        assert len(row) == sizes[level] + 1
        assert sum(row) == sum(sizes[:level])


def test_protocol_roundtrip_random():
    rng = np.random.default_rng(77)
    for _ in range(100):
        m = int(rng.integers(2, 5))
        sizes = rng.integers(1, 4, size=m)
        w = list(itertools.chain.from_iterable(
            [i + 1] * int(n) for i, n in enumerate(sizes)))
        rng.shuffle(w)
        w = WVector(tuple(w))
        assert w_from_protocol(protocol_from_w(w)) == w


def test_protocol_single_sample():
    w = WVector((1, 1, 1))
    assert protocol_from_w(w).counts == ()
    with pytest.raises(ValueError):
        w_from_protocol(Protocol(()))


def test_protocol_rejects():
    with pytest.raises(ValueError):
        Protocol(((0, -1),))
    with pytest.raises(ValueError):
        w_from_protocol(Protocol(((1, 1), (3, 3))))  # row sum mismatch


@pytest.mark.parametrize("make, bad", [
    (lambda x: WVector((x, 2)), True),
    (lambda x: WVector((1, x)), 2.7),
    (lambda x: WVector((1, x)), 2.0),
    (lambda x: WVector((1, x)), np.float64(2.0)),
    (lambda x: Protocol(((x, 0),)), 1.5),
    (lambda x: Protocol(((1, x),)), False),
    (lambda x: Protocol(((1, x),)), np.bool_(True)),
])
def test_w_labels_and_protocol_counts_are_integers(make, bad):
    with pytest.raises(TypeError,
                       match=re.escape(f"must be an integer, got {bad!r}")):
        make(bad)
    # numpy integers stand for the same labels and counts
    assert make(np.int64(int(bad))) == make(int(bad))


def test_w_vector_from_data():
    assert w_vector([[2.0, 0.5], [1.0]]).w == (1, 2, 1)
    ss = SampleSet.from_samples([("a", [2.0, 0.5]), ("b", [1.0])])
    assert w_vector(ss).w == (1, 2, 1)


def test_w_vector_ties():
    with pytest.raises(ValueError):
        w_vector([[1.0, 2.0], [2.0]])
    with pytest.warns(UserWarning, match="ties"):
        w = w_vector([[1.0, 2.0], [2.0]], on_ties="break")
    assert w.w == (1, 1, 2)   # stable: sample 1's value first
    for data in ([[1.0, 2.0], [2.0]], [[2.0, 0.5], [1.0]]):
        with pytest.raises(ValueError, match="on_ties must be"):
            w_vector(data, on_ties="bogus")


# -- conditional success probability ---------------------------------------

def test_q_forced_orderings():
    lt = OrderFunctional(parse_system("cmp(x1 < x2)"))
    assert q_given_ordering(lt, WVector((1, 2))) == 1.0
    assert q_given_ordering(lt, WVector((2, 1))) == 0.0


def test_q_singleton_sizes(min_race):
    assert q_given_ordering(min_race, WVector((3, 1, 2))) == 1.0
    assert q_given_ordering(min_race, WVector((1, 3, 2))) == 0.0


def brute_force_q(w):
    """Count succeeding resample index combinations from pooled positions."""
    pos = {i: [] for i in (1, 2, 3)}
    for rank, label in enumerate(w):
        pos[label].append(rank)
    hits = total = 0
    for p1 in pos[1]:
        for p2 in pos[2]:
            for p3 in pos[3]:
                hits += int(p3 < p1 and p3 < p2)
                total += 1
    return hits / total


def test_q_matches_brute_force(min_race):
    rng = np.random.default_rng(5)
    base = [1, 1, 2, 2, 3, 3]
    for _ in range(40):
        rng.shuffle(base)
        w = WVector(tuple(base))
        assert q_given_ordering(min_race, w) == brute_force_q(base)


def test_q_argument_checks(min_race):
    with pytest.raises(ValueError):
        q_given_ordering(min_race, WVector((1, 2)))   # m mismatch
    with pytest.raises(ValueError, match="label counts"):
        q_given_ordering(min_race, np.array([[1, 2, 3, 3], [1, 2, 2, 3]]))


@pytest.mark.parametrize("text, sizes", [
    ("cmp(kofn(2; x1, x2, x3) < max(x4, x5))", (2, 3, 2, 2, 1)),
    ("cmp(min(max(x1, x2), x3) > kofn(2; x4, x5, x6))", (2, 1, 2, 2, 1, 2)),
    ("cmp(kofn(3; x1, x2, x3, x4) > min(x5, kofn(2; x6, x7, x8)))",
     (1, 2, 1, 2, 1, 1, 2, 1)),
    ("cmp(max(x1, kofn(1; x2, x3), min(x4, x5, x6)) < x7)",
     (2, 1, 1, 2, 1, 1, 2)),
])
def test_q_counts_wide_nodes_like_phi(text, sizes):
    func = OrderFunctional(parse_system(text))
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    rng = np.random.default_rng(11)
    ws = labels[np.argsort(rng.random((30, len(labels))), axis=1)]
    got = q_given_ordering(func, ws)
    assert got.tolist() == [q_oracle(func.spec, w) for w in ws.tolist()]


def test_q_refuses_size_products_past_int64_before_allocating():
    # 40 samples of 3 values: 3**40 index combinations, past 2**63
    func = OrderFunctional(parse_system(
        "cmp(x1 < max(" + ", ".join(f"x{i}" for i in range(2, 41)) + "))"))
    w = np.broadcast_to(np.repeat(np.arange(1, 41), 3), (20_000, 120))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\*\\*63"):
            q_given_ordering(func, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000   # the hit counts alone would take 160 kB


# -- binomial layers -------------------------------------------------------

def test_rho_anchors():
    assert rho(0.0, 0.25, 16) == 1.0
    assert rho(1.0, 0.25, 16) == 0.0
    assert rho(0.25, 0.25, 16) == pytest.approx(
        float(stats.binom.cdf(3, 16, 0.25)), abs=1e-12)
    # non-integer theta*r: successes strictly below 2.5 means <= 2
    assert rho(0.3, 0.25, 10) == pytest.approx(
        float(stats.binom.cdf(2, 10, 0.3)), abs=1e-12)
    assert rho(0.5, 0.0, 16) == 0.0


def test_rho_rejects():
    with pytest.raises(ValueError):
        rho(1.5, 0.25, 16)
    with pytest.raises(ValueError):
        rho(0.5, 0.25, 0)


@pytest.mark.parametrize("theta", [2.0, 1.0000001, -0.1, -0.0 - 1e-300])
def test_theta_outside_the_unit_interval_is_refused(min_race, theta):
    """theta is a share of the r experiments; rho(q, 2.0, r) read 1
    before."""
    with pytest.raises(ValueError, match=r"theta must be in \[0,1\]"):
        rho(0.5, theta, 16)
    with pytest.raises(ValueError, match=r"theta must be in \[0,1\]"):
        coverage_R(min_race, GENS, (2, 2, 2), theta, 0.8, 10, 16)
    with pytest.raises(ValueError, match=r"theta must be in \[0,1\]"):
        protocol_table(min_race, GENS, (2, 2, 2), theta, 0.8, 10, 16)


def test_theta_at_the_ends_of_the_unit_interval():
    assert rho(0.5, 0.0, 16) == 0.0
    assert rho(0.5, 1.0, 16) == pytest.approx(1.0 - 0.5 ** 16, abs=1e-15)
    assert rho(0.5, -0.0, 16) == 0.0


def test_alpha_floor():
    assert alpha_floor(0.5, 10) == 5
    assert alpha_floor(0.1, 10) == 1
    assert alpha_floor(0.7, 10) == 7      # float guard: 0.7*10 < 7 in floats
    with pytest.raises(ValueError):
        alpha_floor(0.05, 10)             # floor = 0: undefined interval
    with pytest.raises(ValueError):
        alpha_floor(0.5, 0)
    with pytest.raises(ValueError):
        alpha_floor(1.5, 10)


def test_coverage_conditional_anchors():
    assert coverage_conditional(1.0, 10, 0.1) == 1.0
    assert coverage_conditional(0.0, 10, 0.1) == 0.0
    assert coverage_conditional(0.5, 10, 0.1) == pytest.approx(
        1.0 - 2.0 ** -10, abs=1e-12)
    with pytest.raises(ValueError):
        coverage_conditional(-0.1, 10, 0.1)


# -- ordering law ----------------------------------------------------------

def test_exponential_race_law_closure_and_mc():
    rates = [3.0, 1.0]
    sizes = (2, 1)
    table = protocol_table(OrderFunctional(parse_system("cmp(x2 < x1)")),
                           [exponential(x) for x in rates], sizes, 0.25, 0.8,
                           10, 16)
    probs = dict(zip(map(tuple, table.w.tolist()),
                     table.probability.tolist()))
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    # independent route: simulate the pooled ordering directly
    rng = np.random.default_rng(42)
    n = 200_000
    draws = np.column_stack([
        rng.exponential(1.0 / 3.0, (n, 2)),
        rng.exponential(1.0, (n, 1))])
    labels = np.array([1, 1, 2])
    w_sim = labels[np.argsort(draws, axis=1)]
    for w, p in probs.items():
        freq = float(np.mean(np.all(w_sim == np.asarray(w), axis=1)))
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(freq - p) <= 4.0 * se


def test_numeric_law_matches_race_on_exponentials(min_race, monkeypatch):
    """The numeric law where the race applies: the W rows and q keep their
    bytes, P_W agrees to 1e-8."""
    gens = [exponential(3.0), exponential(3.0), exponential(2.0)]
    sizes = (2, 2, 1)
    race = protocol_table(min_race, gens, sizes, 0.25, 0.8, 10, 16)
    monkeypatch.setattr(coverage_module, "_exponential_rates",
                        lambda generators: None)
    numeric = protocol_table(min_race, gens, sizes, 0.25, 0.8, 10, 16)
    assert numeric.w.tobytes() == race.w.tobytes()
    assert numeric.q.tobytes() == race.q.tobytes()
    assert numeric.probability == pytest.approx(race.probability, abs=1e-8)
    assert numeric.probability.sum() == pytest.approx(1.0, abs=1e-8)


def test_numeric_law_uniform_symmetry():
    # identical continuous generators: all interleavings equally likely
    table = protocol_table(OrderFunctional(parse_system("cmp(x1 < x2)")),
                           [uniform(0.0, 1.0)] * 2, (2, 2), 0.25, 0.8, 10, 16)
    assert table.probability == pytest.approx([1.0 / 6.0] * 6, abs=1e-8)


@pytest.mark.parametrize("gens", [
    ("normal:0,1", "normal:0.2,1", "normal:0,2"),
    ("exp:3", "exp:3", "uniform:0,1"),
    ("triangular:0,1,3", "exp:1", "normal:1,0.5"),
    # one law narrow against the span of the others
    ("normal:0,0.01", "normal:100,50", "exp:0.5"),
    ("normal:0,1", "normal:0,1", "normal:1e6,1"),
])
def test_numeric_law_total_probability_at_444(min_race, gens):
    """The law's mass is 1 up to the 1e-10 tails cut off each generator."""
    rep = coverage_R(min_race, [parse_distribution(g) for g in gens],
                     (4, 4, 4), 0.25, (0.5, 0.9), 10, 16)
    assert rep.total_probability == pytest.approx(1.0, abs=1e-8)
    assert 0.0 <= rep.coverage[0] <= rep.coverage[1] <= 1.0


def test_numeric_hit_law_matches_race_at_333(min_race, monkeypatch):
    import resamplekit.coverage as coverage_module

    gens = (exponential(3.0), exponential(3.0), exponential(2.0))
    hits, race = _hit_law(min_race, gens, (3, 3, 3), None)
    monkeypatch.setattr(coverage_module, "_exponential_rates",
                        lambda generators: None)
    numeric_hits, numeric = _hit_law(min_race, gens, (3, 3, 3), None)
    assert numeric_hits.tolist() == hits.tolist()
    assert numeric == pytest.approx(race, abs=1e-8, rel=0)


def test_numeric_coverage_of_a_narrow_law_matches_mc(min_race):
    """One law narrow against the span of the others: the exact coverage
    agrees with Monte Carlo."""
    gens = [parse_distribution(g)
            for g in ("normal:0,0.01", "normal:100,50", "exp:0.5")]
    exact = coverage_R(min_race, gens, (2, 2, 2), 0.25, (0.5, 0.9), 10, 16)
    mc = coverage_R(min_race, gens, (2, 2, 2), 0.25, (0.5, 0.9), 10, 16,
                    mode="mc", seed=5, replications=4000)
    for e, m, s in zip(exact.coverage, mc.coverage, mc.se):
        assert abs(e - m) <= 4.0 * s


def test_numeric_law_reads_far_densities_without_warning(min_race):
    """A narrow law's density at the nodes of a very wide one overflows on
    the way to 0: neither exact route warns, and the coverage is kept."""
    gens = [parse_distribution(g)
            for g in ("normal:0,1e307", "exp:3", "exp:2")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = coverage_R(min_race, gens, (2, 2, 2), 0.25, 0.9, 10, 16)
        table = protocol_table(min_race, gens, (2, 2, 2), 0.25, 0.9, 10, 16)
    assert rep.coverage[0] == pytest.approx(0.80548, abs=5e-6)
    assert float(table.probability @ table.coverage[:, 0]) == pytest.approx(
        rep.coverage[0], abs=1e-13)


def test_numeric_law_refuses_a_quantile_span_that_overflows(min_race):
    """Quantiles near -+1.6e308 span more than the float range: exact
    coverage and the protocol table raise, pointing to mc mode, with no
    overflow warning on the way."""
    gens = [parse_distribution(g)
            for g in ("normal:0,1e308", "exp:3", "exp:2")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (coverage_R, protocol_table):
            with pytest.raises(ValueError, match="overflows.*mode='mc'"):
                call(min_race, gens, (2, 2, 2), 0.25, 0.9, 10, 16)


@pytest.mark.parametrize("sizes", [(171, 1), (168, 10)])
def test_numeric_law_refuses_sizes_whose_factorials_pass_the_float_range(
        sizes):
    """171! and 168! 10! pass 1.8e308: exact coverage (and at (171, 1) the
    protocol table) raises ValueError, pointing to mc mode, where the scale
    used to raise a bare OverflowError.  At (170, 1) the scale is finite
    and the law is built."""
    race = OrderFunctional(parse_system("cmp(x2 < x1)"))
    gens = [normal(0.0, 1.0)] * 2
    calls = (coverage_R, protocol_table) if sizes == (171, 1) \
        else (coverage_R,)
    for call in calls:
        with pytest.raises(ValueError, match="too large.*mode='mc'"):
            call(race, gens, sizes, 0.5, 0.9, 10, 16)
    assert _NumericOrderingLaw(gens, (170, 1)).scale \
        == float(math.factorial(170))


# -- unconditional coverage ------------------------------------------------

GENS = (exponential(3.0), exponential(3.0), exponential(2.0))
GAMMAS = (0.5, 0.6, 0.7, 0.8, 0.9)


def test_coverage_exact_published_row(min_race):
    rep = coverage_R(min_race, GENS, (3, 3, 3), 0.25, GAMMAS, k=10, r=16,
                     mode="exact")
    assert rep.total_probability == pytest.approx(1.0, abs=1e-10)
    expected = (0.533647, 0.576696, 0.624730, 0.685998, 0.770763)
    assert rep.coverage == pytest.approx(expected, abs=1e-6)
    # nondecreasing in the confidence level
    assert all(a < b for a, b in zip(rep.coverage, rep.coverage[1:]))


def test_coverage_exact_table_reweights(min_race):
    rep = coverage_R(min_race, GENS, (2, 2, 2), 0.25, (0.5, 0.9), k=10, r=16,
                     mode="exact")
    table = protocol_table(min_race, GENS, (2, 2, 2), 0.25, (0.5, 0.9), k=10,
                           r=16)
    assert len(table) == 90
    for j in range(2):
        recon = sum(row.probability * row.coverage[j] for row in table)
        assert rep.coverage[j] == pytest.approx(recon, abs=1e-12)
    for row in table:
        assert 0.0 <= row.q <= 1.0
        assert 0.0 <= row.rho <= 1.0
    with pytest.raises(BudgetExceededError, match="ordering enumeration"):
        protocol_table(min_race, GENS, (2, 2, 2), 0.25, 0.5, 10, 16,
                       budget=89)


def mann_whitney_null(n1, n2):
    """P{U = u}, u = 0..n1 n2, with U the number of pairs whose sample-1
    value lies below the sample-2 value, under exchangeable samples, by the
    recursion of Mann and Whitney (1947) on the largest value: from sample
    2 it lies above all n1 values of sample 1, else it adds no pair."""
    @functools.cache
    def ways(u, a, b):
        if u < 0:
            return 0
        if a == 0 or b == 0:
            return int(u == 0)
        return ways(u - a, a, b - 1) + ways(u, a - 1, b)
    total = math.comb(n1 + n2, n1)
    return np.array([ways(u, n1, n2) / total for u in range(n1 * n2 + 1)])


@pytest.mark.parametrize("sizes", [(1, 1), (3, 2), (4, 4), (7, 5)])
def test_dp_hit_law_is_the_mann_whitney_null(sizes):
    """Equal-rate exponentials make every interleaving equally likely, so
    the law of hits of cmp(x1 < x2) is the null law of U."""
    func = OrderFunctional(parse_system("cmp(x1 < x2)"))
    hits, p = _hit_law(func, (exponential(1.5),) * 2, sizes, None)
    law = np.zeros(math.prod(sizes) + 1)
    law[hits] = p
    assert law == pytest.approx(mann_whitney_null(*sizes), abs=1e-15)


def test_coverage_dp_reaches_sizes_enumeration_cannot(min_race):
    """(20,20,20) has about 5.8e26 interleavings and about 2.8e7 DP
    states."""
    rep = coverage_R(min_race, GENS, (20, 20, 20), 0.25, GAMMAS, k=10, r=16,
                     budget=30_000_000)
    assert rep.total_probability == pytest.approx(1.0, abs=1e-12)
    assert all(0.0 < a < b < 1.0 for a, b in zip(rep.coverage,
                                                 rep.coverage[1:]))


def test_coverage_budget_counts_dp_states_before_any_law(min_race,
                                                        monkeypatch):
    import resamplekit.coverage as coverage_module

    def refuse(*args, **kwargs):
        raise AssertionError("ordering law built over the budget")

    monkeypatch.setattr(coverage_module, "_NumericOrderingLaw", refuse)
    gens = (normal(0.0, 1.0),) * 3
    with pytest.raises(BudgetExceededError, match="coverage DP states"):
        coverage_R(min_race, gens, (4, 4, 4), 0.25, 0.8, 10, 16, budget=124)
    with pytest.raises(BudgetExceededError, match="coverage DP states"):
        coverage_R(min_race, gens, (4, 4, 4), 0.25, 0.8, 10, 16, budget=125)


def test_coverage_exact_numeric_generators(min_race):
    # same race expressed with a non-exponential generator mix
    rep = coverage_R(min_race, (uniform(0.0, 1.0),) * 3, (2, 2, 2),
                     1.0 / 3.0, (0.8,), k=10, r=16, mode="exact")
    sym = coverage_R(min_race, (exponential(1.0),) * 3, (2, 2, 2),
                     1.0 / 3.0, (0.8,), k=10, r=16, mode="exact")
    # identical generators in both cases: the ordering law is uniform, so
    # the coverage must agree no matter which continuous family is used
    assert rep.coverage[0] == pytest.approx(sym.coverage[0], abs=1e-5)


def test_coverage_mc_matches_exact(min_race):
    exact = coverage_R(min_race, GENS, (2, 2, 2), 0.25, (0.5, 0.9), k=10,
                       r=16, mode="exact")
    mc = coverage_R(min_race, GENS, (2, 2, 2), 0.25, (0.5, 0.9), k=10, r=16,
                    mode="mc", seed=31, replications=4000)
    for e, m, s in zip(exact.coverage, mc.coverage, mc.se):
        assert abs(e - m) <= 4.0 * s


def test_coverage_mc_deterministic_and_threaded(min_race):
    kwargs = dict(theta=0.25, gamma=GAMMAS, k=10, r=16, mode="mc",
                  seed=9, replications=3000)
    a = coverage_R(min_race, GENS, (3, 3, 3), **kwargs)
    b = coverage_R(min_race, GENS, (3, 3, 3), **kwargs)
    four = coverage_R(min_race, GENS, (3, 3, 3), **kwargs, threads=4)
    assert a.coverage == b.coverage == four.coverage
    assert a.se == four.se


def test_coverage_report_to_dict(min_race):
    rep = coverage_R(min_race, GENS, (2, 2, 2), 0.25, (0.8,), k=10, r=16,
                     mode="exact")
    d = rep.to_dict()
    assert d["mode"] == "exact"
    assert d["total_probability"] == rep.total_probability
    mc = coverage_R(min_race, GENS, (2, 2, 2), 0.25, (0.8,), k=10, r=16,
                    mode="mc", seed=2, replications=100)
    dm = mc.to_dict()
    assert dm["seed"] == 2 and "se" in dm and "total_probability" not in dm


def test_coverage_argument_checks(min_race):
    with pytest.raises(ValueError):
        coverage_R(min_race, GENS[:2], (2, 2, 2), 0.25, 0.8, 10, 16)
    with pytest.raises(ValueError):
        coverage_R(min_race, GENS, (2, 2), 0.25, 0.8, 10, 16)
    with pytest.raises(ValueError):
        coverage_R(min_race, GENS, (2, 0, 2), 0.25, 0.8, 10, 16)
    disc = (empirical([1.0, 2.0]),) * 3
    with pytest.raises(ValueError):
        coverage_R(min_race, disc, (2, 2, 2), 0.25, 0.8, 10, 16)
    with pytest.raises(ValueError):
        coverage_R(min_race, GENS, (2, 2, 2), 0.25, 1.2, 10, 16)
    with pytest.raises(ValueError):
        coverage_R(min_race, GENS, (2, 2, 2), 0.25, 0.99, 10, 16)  # alpha k < 1
    with pytest.raises(ValueError):
        coverage_R(min_race, GENS, (2, 2, 2), 0.25, 0.8, 10, 16, mode="bogus")
    with pytest.raises(ValueError):
        coverage_R(min_race, GENS, (2, 2, 2), 0.25, 0.8, 10, 16, mode="mc")
    with pytest.raises(ValueError):
        coverage_R(min_race, GENS, (2, 2, 2), 0.25, 0.8, 10, 16, mode="mc",
                   seed=1, replications=1)
    with pytest.raises(BudgetExceededError):
        coverage_R(min_race, GENS, (8, 8, 8), 0.25, 0.8, 10, 16, budget=1000)


COUNT_ARGUMENTS = {
    "coverage_R r": ("r", lambda f, n: coverage_R(
        f, GENS, (2, 2, 2), 0.25, 0.8, 10, n)),
    "coverage_R k": ("k", lambda f, n: coverage_R(
        f, GENS, (2, 2, 2), 0.25, 0.8, n, 16)),
    "coverage_R sizes": ("sample size", lambda f, n: coverage_R(
        f, GENS, (n, 2, 2), 0.25, 0.8, 10, 16)),
    "coverage_R replications": ("replications", lambda f, n: coverage_R(
        f, GENS, (2, 2, 2), 0.25, 0.8, 10, 16, mode="mc", seed=1,
        replications=n)),
    "protocol_table r": ("r", lambda f, n: protocol_table(
        f, GENS, (2, 2, 2), 0.25, 0.8, 10, n)),
    "rho r": ("r", lambda f, n: rho(0.5, 0.25, n)),
    "coverage_conditional k": ("k", lambda f, n: coverage_conditional(
        0.5, n, 0.2)),
    "alpha_floor k": ("k", lambda f, n: alpha_floor(0.2, n)),
}


@pytest.mark.parametrize("entry", COUNT_ARGUMENTS)
@pytest.mark.parametrize("bad, error", [
    (2.5, TypeError), (16.0, TypeError), (True, TypeError), (0, ValueError)])
def test_count_arguments_reject_non_integers(min_race, entry, bad, error):
    """A float was truncated or used as a binomial size, and a bool taken
    as 1, before."""
    name, call = COUNT_ARGUMENTS[entry]
    with pytest.raises(error, match=rf"\b{name}\b"):
        call(min_race, bad)


def test_coverage_layer_accepts_numpy_integers(min_race):
    args = (min_race, GENS, (2, 2, 2), 0.25, 0.8)
    want = coverage_R(*args, 10, 16)
    got = coverage_R(min_race, GENS, np.array([2, 2, 2]), 0.25, 0.8,
                     np.int64(10), np.int32(16))
    assert got == want
    assert rho(0.5, 0.25, np.int64(16)) == rho(0.5, 0.25, 16)


def test_coverage_rejects_an_empty_gamma_list(min_race):
    with pytest.raises(ValueError, match="gamma"):
        coverage_R(min_race, GENS, (2, 2, 2), 0.25, [], 10, 16)
    with pytest.raises(ValueError, match="gamma"):
        protocol_table(min_race, GENS, (2, 2, 2), 0.25, (), 10, 16)


# -- the interval itself ---------------------------------------------------

@pytest.fixture()
def race_samples():
    return SampleSet.from_samples([
        ("a", [0.9, 0.4, 1.8]), ("b", [1.2, 0.6, 0.3]), ("c", [0.2, 1.5, 0.7])])


def test_interval_deterministic(min_race, race_samples):
    a = resampling_interval(min_race, race_samples, gamma=0.8, k=10, r=16,
                            seed=3)
    b = resampling_interval(min_race, race_samples, gamma=0.8, k=10, r=16,
                            seed=3)
    assert a == b
    assert a.interval == (a.a, 1.0)
    assert len(a.estimates) == 10
    j0 = alpha_floor(1.0 - 0.8, 10)
    assert a.a == sorted(a.estimates)[j0 - 1]


def test_interval_median_order_statistic(min_race, race_samples):
    res = resampling_interval(min_race, race_samples, gamma=0.5, k=10, r=16,
                              seed=3)
    assert res.a == sorted(res.estimates)[4]   # 5th order statistic


@pytest.mark.parametrize("r", [16, BLOCK + 1])
def test_interval_evaluates_the_system_in_its_first_experiment_only(
        min_race, race_samples, r):
    """On a rank grid of 27 cells, at most BLOCK, the first experiment
    evaluates its draws, block by block; the second builds the rank table,
    the grid's one evaluation, and every later one reads it."""
    batch = mock.patch.object(resampling_module, "evaluate_batch",
                              wraps=resampling_module.evaluate_batch)
    grid = mock.patch.object(resampling_module, "evaluate_grid",
                             wraps=resampling_module.evaluate_grid)
    with batch as batches, grid as grids:
        res = resampling_interval(min_race, race_samples, gamma=0.8, k=5,
                                  r=r, seed=3)
    assert len(res.estimates) == 5
    assert (batches.call_count, grids.call_count) == (block_count(r), 1)


@pytest.mark.parametrize("call", [
    lambda f, s: resampling_interval(f, s, gamma=0.8, k=10, r=10 ** 30,
                                     seed=1),
    lambda f, s: resampling_interval(f, s, gamma=0.8, k=10 ** 30, r=16,
                                     seed=1),
    lambda f, s: wave_estimate(f.spec, s, {4: 2, 5: 10 ** 30}, seed=1),
    lambda f, s: wave_estimate(f.spec, s, {4: 1e300, 5: 4}, seed=1),
    lambda f, s: wave_estimate(
        parse_system("ind(min(x1, x2, x3) > t)", params={"t": 0.5}), s,
        {4: 10 ** 30, 5: 2}, seed=1),
    lambda f, s: WVector((1, 2, 10 ** 30)),
    lambda f, s: w_from_protocol(Protocol(((10 ** 30, 1),))),
    lambda f, s: rho(0.5, 0.25, 10 ** 30),
    lambda f, s: coverage_conditional(0.5, 10 ** 30, 0.2),
    lambda f, s: coverage_R(f, GENS, (2, 2, 10 ** 30), 0.25, (0.8,), k=10,
                            r=16, mode="mc", seed=1)],
    ids=["interval-r", "interval-k", "wave-size", "wave-float-size",
         "wave-counted-size", "w-label", "protocol-count", "rho-r",
         "coverage-k", "coverage-size"])
def test_counts_past_int64_are_refused_before_numpy(min_race, race_samples,
                                                    call):
    with pytest.raises(ValueError, match=r"must be below 2\*\*63, got "):
        call(min_race, race_samples)


def test_interval_constant_functional(min_race):
    # sample c dominates from below: phi is identically one
    ss = SampleSet.from_samples([
        ("a", [5.0, 6.0]), ("b", [7.0, 8.0]), ("c", [1.0, 2.0])])
    res = resampling_interval(min_race, ss, gamma=0.8, k=5, r=8, seed=1)
    assert res.a == 1.0
    assert res.estimates == (1.0,) * 5


def test_interval_rejects(min_race, race_samples):
    with pytest.raises(ValueError):
        resampling_interval(min_race, race_samples, gamma=1.5, k=10, r=16,
                            seed=1)
    with pytest.raises(ValueError):
        resampling_interval(min_race, race_samples, gamma=0.8, k=10, r=0,
                            seed=1)
    with pytest.raises(ValueError):
        # floor(alpha k) = 0: interval undefined
        resampling_interval(min_race, race_samples, gamma=0.9, k=5, r=16,
                            seed=1)
    one = SampleSet.from_samples([("a", [0.9, 0.4, 1.8])])
    # the interval and the cascade share the resampling arity check
    for call in (lambda: resampling_interval(min_race, one, gamma=0.8, k=10,
                                             r=16, seed=1),
                 lambda: wave_estimate(min_race, one, {}, seed=1)):
        with pytest.raises(ValueError,
                           match="system takes 3 arguments but samples "
                                 "bind 1"):
            call()


def test_interval_empirical_coverage_matches_exact(min_race):
    """Simulated coverage of the interval reproduces the exact-mode R."""
    gamma, k, r, theta = 0.8, 10, 16, 0.25
    exact = coverage_R(min_race, GENS, (2, 2, 2), theta, (gamma,), k=k, r=r,
                       mode="exact").coverage[0]
    rng = np.random.default_rng(606)
    reps = 2000
    hits = 0
    for rep in range(reps):
        ss = SampleSet.from_samples([
            ("a", rng.exponential(1.0 / 3.0, 2)),
            ("b", rng.exponential(1.0 / 3.0, 2)),
            ("c", rng.exponential(1.0 / 2.0, 2))])
        res = resampling_interval(min_race, ss, gamma=gamma, k=k, r=r,
                                  seed=rep)
        # the interval covers when its lower end falls strictly below Theta
        hits += int(res.a < theta)
    freq = hits / reps
    se = math.sqrt(exact * (1.0 - exact) / reps)
    assert abs(freq - exact) <= 4.0 * se
