import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from resamplekit import (BudgetExceededError, DamageData, DamageTruth,
                         RenewalPair, SampleSet, damage_variance_mc,
                         draw_resample, estimate_exceedance, estimate_inner_mc,
                         estimate_known_g, estimate_theta,
                         estimator_expectation, exhaustive_moments,
                         exhaustive_theta, exponential, normal, parse_system,
                         plugin_variance_mc, resample_damage_counts,
                         resampling_variance, triangular,
                         wave_estimate_vector_samples)
import resamplekit.resampling as resampling_module
from resamplekit._streams import BLOCK
from resamplekit.renewal import (NormalConvolutionKit, RenewalLayout,
                                 exceedance_variance, plugin_baseline)
from resamplekit.systems import evaluate, evaluate_grid

from helpers import var_se


def test_draw_resample_ranges(small_samples):
    rng = np.random.default_rng(0)
    for _ in range(50):
        idx = draw_resample(small_samples, rng)
        assert len(idx.indices) == 3
        assert all(0 <= j < 3 for j in idx.indices)


def test_draw_resample_uniform(small_samples):
    """Chi-square uniformity of the 27 possible vectors over 1e5 draws."""
    rng = np.random.default_rng(42)
    counts = np.zeros(27, dtype=int)
    for _ in range(100_000):
        i, j, k = draw_resample(small_samples, rng).indices
        counts[9 * i + 3 * j + k] += 1
    assert stats.chisquare(counts).pvalue > 0.01


def test_draw_resample_block_permutation():
    """Two arguments over one size-2 sample come out as a random permutation."""
    s = SampleSet.from_samples([("p", [1.0, 2.0])], blocks={1: "p", 2: "p"})
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(200):
        a, b = draw_resample(s, rng).indices
        assert {a, b} == {0, 1}
        seen.add((a, b))
    assert seen == {(0, 1), (1, 0)}


def test_estimate_deterministic(two_of_three, small_samples):
    a = estimate_theta(two_of_three, small_samples, r=64, seed=7, keep_values=True)
    b = estimate_theta(two_of_three, small_samples, r=64, seed=7, keep_values=True)
    assert a.estimate == b.estimate
    assert a.empirical_variance == b.empirical_variance
    np.testing.assert_array_equal(a.values, b.values)
    c = estimate_theta(two_of_three, small_samples, r=64, seed=8)
    assert c.estimate != a.estimate or c.empirical_variance != a.empirical_variance


def test_estimate_is_mean_of_values(two_of_three, small_samples):
    res = estimate_theta(two_of_three, small_samples, r=500, seed=3, keep_values=True)
    assert res.realizations == 500
    assert res.estimate == pytest.approx(float(np.mean(res.values)), abs=1e-15)
    assert res.empirical_variance == pytest.approx(float(np.var(res.values, ddof=1)))
    assert res.standard_error == pytest.approx(
        np.sqrt(res.empirical_variance / 500))
    assert set(np.unique(res.values)) <= {0.0, 1.0}


def test_estimate_trivial_cases(two_of_three):
    high = SampleSet.from_json({"a": [2.0, 3.0], "b": [2.5, 4.0], "c": [9.0, 2.2]})
    res = estimate_theta(two_of_three, high, r=40, seed=1)
    assert res.estimate == 1.0 and res.empirical_variance == 0.0

    single = SampleSet.from_json({"a": [2.0], "b": [0.5], "c": [0.1]})
    res = estimate_theta(two_of_three, single, r=17, seed=5)
    assert res.estimate == evaluate(two_of_three, [2.0, 0.5, 0.1]) == 0.0
    assert res.empirical_variance == 0.0


def test_estimate_requires_seed(two_of_three, small_samples):
    with pytest.raises(ValueError):
        estimate_theta(two_of_three, small_samples, r=10)
    with pytest.raises(ValueError):
        estimate_theta(two_of_three, small_samples, r=0, seed=1)


# -- the rank table of repeated seeded estimates --------------------------

def grid_spy():
    """A spy on the rank table's builds, which call evaluate_grid."""
    return mock.patch.object(resampling_module, "evaluate_grid",
                             wraps=evaluate_grid)


def test_one_shot_estimates_build_no_rank_table(two_of_three, small_samples):
    with grid_spy() as spy:
        estimate_theta(two_of_three, small_samples, r=10, seed=1)
        spy.assert_not_called()
    # an exhaustive estimate evaluates the grid but leaves the slot alone
    estimate_theta(two_of_three, small_samples, r=None)
    with grid_spy() as spy:
        estimate_theta(two_of_three, small_samples, r=10, seed=2)
        spy.assert_called_once()


def test_grids_over_block_cells_build_no_rank_table(two_of_three):
    rng = np.random.default_rng(4)
    samples = SampleSet.from_samples(
        [(name, rng.random(50)) for name in "abc"])
    assert samples.admissible_count() > BLOCK
    with grid_spy() as spy:
        for seed in range(3):
            estimate_theta(two_of_three, samples, r=10, seed=seed)
        spy.assert_not_called()
    assert samples._seeded == (None, None)


def test_rank_table_is_read_only_and_kept_values_are_their_own(
        two_of_three, small_samples):
    first = estimate_theta(two_of_three, small_samples, r=64, seed=7,
                           keep_values=True)
    kept = estimate_theta(two_of_three, small_samples, r=64, seed=7,
                          keep_values=True)
    held, (table, _) = small_samples._seeded
    assert held is two_of_three and len(table) == 27
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 2.0
    assert kept.values.tobytes() == first.values.tobytes()
    assert not np.shares_memory(kept.values, table)
    before = table.tobytes()
    kept.values[:] = -1.0
    again = estimate_theta(two_of_three, small_samples, r=64, seed=7,
                           keep_values=True)
    assert table.tobytes() == before
    assert again.values.tobytes() == first.values.tobytes()


def test_switching_systems_resets_the_slot_and_keeps_every_byte(
        two_of_three, small_samples):
    other = parse_system("sum(x1, max(x2, x3))")
    cold = {spec: SampleSet(small_samples.names, small_samples.columns,
                            small_samples.arg_to_sample)
            for spec in (two_of_three, other)}
    want = {spec: estimate_theta(spec, cold[spec], r=100, seed=9,
                                 keep_values=True)
            for spec in cold}
    for spec in (two_of_three, two_of_three, other, other, two_of_three,
                 other):
        got = estimate_theta(spec, small_samples, r=100, seed=9,
                             keep_values=True)
        assert small_samples._seeded[0] is spec
        assert (got.estimate, got.empirical_variance) == (
            want[spec].estimate, want[spec].empirical_variance)
        assert got.values.tobytes() == want[spec].values.tobytes()
    # the switch dropped the table; the slot holds the last system alone
    assert small_samples._seeded == (other, None)


def test_exhaustive_theta_oracle(two_of_three, small_samples):
    """Exhaustive mean equals a direct loop over all index vectors."""
    acc = [evaluate(two_of_three, small_samples.values_matrix(np.array(v)[None, :])[0])
           for v in small_samples.enumerate_index_vectors()]
    assert exhaustive_theta(two_of_three, small_samples) == pytest.approx(
        float(np.mean(acc)), abs=1e-15)
    assert 0.0 < exhaustive_theta(two_of_three, small_samples) < 1.0


def test_exhaustive_theta_anchor(two_of_three):
    s = SampleSet.from_json({"a": [2.0, 2.0], "b": [2.0, 2.0], "c": [0.0, 0.0]})
    assert exhaustive_theta(two_of_three, s) == 1.0


def test_exhaustive_moments_oracle(two_of_three, small_samples):
    vals = np.array(
        [evaluate(two_of_three, small_samples.values_matrix(np.array(v)[None, :])[0])
         for v in small_samples.enumerate_index_vectors()])
    mom = exhaustive_moments(two_of_three, small_samples)
    assert mom.count == 27
    assert mom.mu == pytest.approx(float(vals.mean()), abs=1e-15)
    assert mom.mu2 == pytest.approx(float(np.mean(vals**2)), abs=1e-15)


def test_full_enumeration_equals_exhaustive(two_of_three, small_samples):
    full = estimate_theta(two_of_three, small_samples, r=None)
    assert full.estimate == exhaustive_theta(two_of_three, small_samples)
    assert full.realizations == small_samples.admissible_count() == 27


def test_estimate_converges_to_exhaustive(two_of_three, small_samples):
    res = estimate_theta(two_of_three, small_samples, r=20_000, seed=9)
    target = exhaustive_theta(two_of_three, small_samples)
    assert abs(res.estimate - target) < 4 * res.standard_error


def test_budget_guard():
    """A system without a class lattice enumerates the 300^3 grid."""
    big = SampleSet.from_json({n: list(range(300)) for n in ("a", "b", "c")})
    with pytest.raises(BudgetExceededError) as err:
        exhaustive_theta(parse_system("kofn(2; x1, x2, x3)"), big, budget=1000)
    assert (err.value.needed, err.value.what) == (
        300 ** 3, "index-vector enumeration")


def test_class_lattice_charges_its_reduced_cells(two_of_three):
    """The 2-of-3 indicator counts its three columns of 300 (900 cells)
    and TREE6 its four columns of 6 and the 6 x 6 grid of sum(x5, x6) (60
    cells), instead of their value grids, and builds no lattice of classes;
    a budget one below raises with those counts.  The pair sums of the
    2-of-3 hold M and N on its 3^3 class cells (962 cells in all)."""
    big = SampleSet.from_json({n: list(range(300)) for n in ("a", "b", "c")})
    tree6 = parse_system("ind(min(max(x1, x2), max(x3, x4), sum(x5, x6)) > t)",
                         params={"t": 4.0})
    six = SampleSet.from_samples(
        [(f"x{i}", np.arange(6.0)) for i in range(1, 7)])
    for spec, samples, cells in ((two_of_three, big, 900), (tree6, six, 60)):
        assert exhaustive_moments(spec, samples, budget=cells).count \
            == samples.admissible_count()
        with pytest.raises(BudgetExceededError) as err:
            exhaustive_theta(spec, samples, budget=cells - 1)
        assert (err.value.needed, err.value.what) == (
            cells, "threshold-class lattice")
    # M and N on 3^3 cells each, 2^3 joint injections and the three columns
    with pytest.raises(BudgetExceededError) as err:
        resampling_variance(two_of_three, big, 4, budget=961)
    assert (err.value.needed, err.value.what) == (
        962, "threshold-class pair tensor")
    # 298 values of each sample lie above t = 1 and 2 do not
    assert exhaustive_theta(two_of_three, big) == float(Fraction(
        300 ** 3 - 2 ** 3 - 3 * 298 * 2 ** 2, 300 ** 3))


def test_forty_leaf_k_of_n_takes_its_exact_theta():
    """A 20-of-40 on 40 samples of 3 values, 2 of them above t: mu counts
    the 120 values against t, where a lattice of its 40 boundary nodes
    would have 2^40 cells, and is the correctly rounded ratio."""
    spec = parse_system(
        "ind(kofn(20; " + ", ".join(f"x{i}" for i in range(1, 41)) + ") > t)",
        params={"t": 1.0})
    s = SampleSet.from_samples(
        [(f"x{i}", [0.5, 1.5, 2.5]) for i in range(1, 41)])
    want = Fraction(sum(math.comb(40, j) * 2 ** j for j in range(20, 41)),
                    3 ** 40)
    assert exhaustive_theta(spec, s) == float(want) == 0.9904482728169275
    assert exhaustive_moments(spec, s, budget=120).count == 3 ** 40
    with pytest.raises(BudgetExceededError) as err:
        exhaustive_theta(spec, s, budget=119)
    assert (err.value.needed, err.value.what) == (
        120, "threshold-class lattice")


def test_class_pair_tensor_charges_the_cells_it_builds():
    """A 9-of-16 on 16 samples of 3 values: 3^16 class cells are no more
    than the 3^16 positions, so the pair sums take the class tensor, and
    its M and N, 2 * 3^16 cells, exceed the default budget.  The count
    walk of exhaustive_moments (48 values) stays within it."""
    spec = parse_system(
        "ind(kofn(9; " + ", ".join(f"x{i}" for i in range(1, 17)) + ") > t)",
        params={"t": 1.0})
    s = SampleSet.from_samples(
        [(f"x{i}", [0.5, 1.5, 2.5]) for i in range(1, 17)])
    assert exhaustive_moments(spec, s).count == 3 ** 16
    with pytest.raises(BudgetExceededError) as err:
        resampling_variance(spec, s, 4)
    assert (err.value.needed, err.value.what) == (
        2 * 3 ** 16 + 2 ** 16 + 48, "threshold-class pair tensor")


def test_class_pair_tensor_larger_than_the_positions_is_not_taken():
    """Five samples of 2 values and five of 3 have 7,776 positions and
    3^10 = 59,049 class cells, so the pair sums keep the position tensor;
    exhaustive_moments counts the 25 values, and both give mu."""
    spec = parse_system(
        "ind(kofn(4; " + ", ".join(f"x{i}" for i in range(1, 11)) + ") > t)",
        params={"t": 1.0})
    s = SampleSet.from_samples(
        [(f"x{i}", [0.5, 1.5, 2.5][:2 + i % 2]) for i in range(1, 11)])
    with pytest.raises(BudgetExceededError) as err:
        resampling_variance(spec, s, 4, budget=7000)
    assert (err.value.needed, err.value.what) == (
        7776 + 2 ** 10, "pair-moment tensor")
    rep = resampling_variance(spec, s, 4)
    assert rep.mu == rep.mu2 == exhaustive_moments(spec, s).mu


TREE6 = "ind(min(max(x1, x2), max(x3, x4), sum(x5, x6)) > t)"


def test_tree6_exhaustive_theta_at_1000_per_sample():
    """10^18 index vectors, over any budget for the value grid: the class
    lattice reads the four leaves' shares above t and the 10^6 sums of x5
    and x6.  The branches draw from disjoint samples, so theta is the
    product of the branches' empirical probabilities, taken here as exact
    fractions; the lattice's hit count gives it correctly rounded."""
    cols = np.random.default_rng(1000).exponential(1.0, (6, 1000))
    t = 0.9
    spec = parse_system(TREE6, params={"t": t})
    s = SampleSet.from_samples(
        [(f"x{i}", c) for i, c in enumerate(cols, start=1)])
    n = Fraction(1000)

    def below(c):
        return np.count_nonzero(c <= t) / n

    def parallel(a, b):
        return 1 - below(a) * below(b)

    summed = Fraction(int(np.count_nonzero(np.add.outer(cols[4], cols[5])
                                            > t)), 1000 ** 2)
    theta = parallel(cols[0], cols[1]) * parallel(cols[2], cols[3]) * summed
    assert exhaustive_theta(spec, s) == float(theta)


def test_shared_sample_under_one_boundary_node_takes_the_lattice():
    """x5 and x6 of TREE6 drawn from one sample meet only in sum(x5, x6),
    whose local grid is their 5 x 4 ordered draws; x1 and x2 on one sample
    lie under two boundary nodes, which the draw couples, so that layout
    takes the value grid.  Both give the index-row oracle's bits."""
    from helpers import grid_values_oracle
    from resamplekit.resampling import chunk_moments

    rng = np.random.default_rng(6)
    spec = parse_system(TREE6, params={"t": 1.0})
    cols = [np.round(rng.exponential(1.0, n) * 4) / 4 for n in (3, 4, 3, 5, 5)]
    for blocks, what in (({5: "x5", 6: "x5"}, "threshold-class lattice"),
                         ({1: "x1", 2: "x1"}, "index-vector enumeration")):
        names = [f"x{i}" for i in range(1, 7) if i not in blocks
                 or blocks[i] == f"x{i}"]
        binding = {a: blocks.get(a, f"x{a}") for a in range(1, 7)}
        s = SampleSet.from_samples(list(zip(names, cols)), blocks=binding)
        assert exhaustive_moments(spec, s) == chunk_moments(
            grid_values_oracle(spec, s))
        with pytest.raises(BudgetExceededError) as err:
            exhaustive_moments(spec, s, budget=1)
        assert err.value.what == what


# -- variance report, empirical mode --------------------------------------

def test_variance_empirical_formula(two_of_three, small_samples):
    """Conditional on the data, Var = (mu2 - mu^2) / r for any r."""
    mom = exhaustive_moments(two_of_three, small_samples)
    for r in (1, 5, 100):
        rep = resampling_variance(two_of_three, small_samples, r=r)
        assert rep.mode == "empirical"
        assert rep.variance == pytest.approx((mom.mu2 - mom.mu**2) / r, rel=1e-12)
        # assembled identity, exact
        assert rep.variance * r - rep.mu2 - (r - 1) * rep.mu11 + r * rep.mu**2 \
            == pytest.approx(0.0, abs=1e-12)
    rep1 = resampling_variance(two_of_three, small_samples, r=1)
    assert rep1.variance == pytest.approx(rep1.mu2 - rep1.mu**2, abs=1e-15)


def test_variance_empirical_vs_seeded_runs(two_of_three, small_samples):
    """The report matches the spread of repeated seeded runs on one data set."""
    r = 5
    rep = resampling_variance(two_of_three, small_samples, r=r)
    estimates = np.array([
        estimate_theta(two_of_three, small_samples, r=r, seed=s).estimate
        for s in range(10_000)])
    emp = float(np.var(estimates, ddof=1))
    assert abs(emp - rep.variance) < 4 * var_se(estimates)


def test_variance_report_indicator_mu2(two_of_three, small_samples):
    # for 0/1 outputs the second moment equals the mean
    rep = resampling_variance(two_of_three, small_samples, r=3)
    assert rep.mu2 == pytest.approx(rep.mu, abs=1e-15)
    assert rep.variance >= -1e-12


def test_variance_generator_mode_moments(two_of_three):
    """Generator mode recovers the analytic theta for exponential elements."""
    p = np.exp(-1.0)
    theta = 3 * p**2 * (1 - p) + p**3
    rep = resampling_variance(two_of_three, [exponential(1.0)] * 3, r=10,
                              layout=(4, 4, 4), seed=2, mc_draws=40_000)
    assert rep.mode == "generator"
    se = np.sqrt(theta * (1 - theta) / 40_000)
    assert abs(rep.mu - theta) < 5 * se
    assert rep.mu2 == pytest.approx(rep.mu, abs=1e-15)
    assert len(rep.rows) == 8
    assert sum(row.probability for row in rep.rows) == pytest.approx(1.0, abs=1e-12)


def test_variance_generator_needs_layout(two_of_three):
    with pytest.raises(ValueError):
        resampling_variance(two_of_three, [exponential(1.0)] * 3, r=10)


def count_arguments():
    """(count name, call with that count replaced) per estimator, study and
    variance entry point outside the coverage layer; every other argument
    is valid."""
    spec = parse_system("max(x1, x2)")
    samples = SampleSet.from_samples([("a", [0.5, 1.5, 2.5]),
                                      ("b", [1.0, 2.0])])
    one = SampleSet.from_samples([("a", [0.5, 1.5, 2.5])])
    z = [exponential(1.0)]
    pair = RenewalPair([1.0, 2.0, 3.0, 0.5], [1.5, 2.5], m_x=2, m_y=1)
    data = DamageData([1.0, 2.0], [1.0, 3.0, 2.0])
    truth = DamageTruth(0.5, triangular(0.0, 2.0, 4.0))
    study = dict(n_a=2, n_b=16, t=5.0, r=4, replications=4, seed=1)
    plugin = dict(n_a=2, n_b=16, t=5.0, replications=4, seed=1)
    lay = RenewalLayout(6, 2, 4, 1)
    kit = NormalConvolutionKit(1.0, 0.3, 1.5, 0.4, 2, 1)
    bootstrap = dict(layout=lay, x_dist=normal(1.0, 0.3),
                     y_dist=normal(1.5, 0.4), r=4, replications=4, seed=1)
    return {
        "estimate_theta r": ("r", lambda n: estimate_theta(
            spec, samples, n, seed=1)),
        "estimate_known_g r": ("r", lambda n: estimate_known_g(
            lambda x: float(x[0]), samples, n, 1)),
        "estimate_inner_mc N": ("N", lambda n: estimate_inner_mc(
            spec, one, z, N=n, r=5, seed=1)),
        "estimate_inner_mc r": ("r", lambda n: estimate_inner_mc(
            spec, one, z, N=3, r=n, seed=1)),
        "estimate_exceedance r": ("r", lambda n: estimate_exceedance(
            pair, n, 1)),
        "exceedance_variance r": ("r", lambda n: exceedance_variance(
            lay, kit, n)),
        **{f"plugin_baseline {name}": (name, lambda n, name=name:
                                       plugin_baseline(
                                           **{**bootstrap, name: n}))
           for name in ("r", "replications")},
        "wave_estimate_vector_samples N": ("N", lambda n:
                                           wave_estimate_vector_samples(
                                               spec, one, z, n, {3: 3}, 1)),
        "estimator_expectation n_a": ("n_a", lambda n: estimator_expectation(
            truth, n, 5.0)),
        "resample_damage_counts r": ("r", lambda n: resample_damage_counts(
            data, 2.0, n, 1)),
        **{f"damage_variance_mc {name}": (name, lambda n, name=name:
                                          damage_variance_mc(
                                              truth, **{**study, name: n}))
           for name in ("n_a", "n_b", "r", "replications")},
        **{f"plugin_variance_mc {name}": (name, lambda n, name=name:
                                          plugin_variance_mc(
                                              truth, **{**plugin, name: n}))
           for name in ("n_a", "n_b", "replications")},
    }


COUNT_ARGUMENTS = count_arguments()


@pytest.mark.parametrize("entry", COUNT_ARGUMENTS)
@pytest.mark.parametrize("bad, error", [
    (2.5, TypeError), (16.0, TypeError), (True, TypeError), (0, ValueError)])
def test_count_arguments_reject_non_integers(entry, bad, error):
    """Before, numpy or the data checks raised for some of these, and others
    returned a number for a float, a bool or 0."""
    name, call = COUNT_ARGUMENTS[entry]
    with pytest.raises(error, match=rf"\b{name}\b"):
        call(bad)
    call(16)  # a valid count runs
