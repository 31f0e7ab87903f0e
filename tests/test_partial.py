import math
import re

import numpy as np
import pytest

from resamplekit import (SampleSet, estimate_inner_mc, estimate_known_g,
                         exhaustive_theta, exponential,
                         three_branch_conditional,
                         three_branch_system, uniform,
                         wave_estimate_vector_samples)
from resamplekit.systems import evaluate_batch

from helpers import mean_se

T = 1.0
Z_DISTS = [exponential(1.0), exponential(0.5), exponential(2.0)]


@pytest.fixture(scope="module")
def x_samples():
    return SampleSet.from_json({
        "x1": [0.4, 1.3, 0.9], "x2": [1.2, 0.6, 2.0], "x3": [0.2, 0.7, 1.1]})


def manual_g(x):
    """Branch survival product, written out independently for exp Z's."""
    l1, l2, l3 = 1.0, 0.5, 2.0
    a = 1.0 if x[0] > T else math.exp(-l1 * T)
    b = 0.0 if x[1] <= T else math.exp(-l2 * T)
    c = math.exp(-l3 * max(T - x[2], 0.0))
    return 1.0 - a * b * c


def test_three_branch_system_shape():
    spec = three_branch_system(T)
    assert spec.m == 6
    rows = np.array([[0.4, 1.2, 0.2, 5.0, 5.0, 5.0],   # all branches above t
                     [0.4, 1.2, 0.2, 5.0, 0.5, 5.0]])  # min(x2, z2) below t
    np.testing.assert_array_equal(evaluate_batch(spec, rows), [0.0, 1.0])


@pytest.mark.parametrize("x", [
    (0.4, 1.2, 0.2), (1.3, 0.6, 0.7), (1.3, 2.0, 1.1), (0.9, 2.0, 0.2)])
def test_conditional_g_formula(x):
    g = three_branch_conditional(T, Z_DISTS)
    assert float(g(np.array(x))) == pytest.approx(manual_g(x), abs=1e-12)


def test_conditional_g_vs_system_simulation():
    """g equals the Monte Carlo average of the full indicator over Z."""
    g = three_branch_conditional(T, Z_DISTS)
    spec = three_branch_system(T)
    rng = np.random.default_rng(40)
    for x in [(0.4, 1.2, 0.2), (1.3, 2.0, 0.9)]:
        n = 200_000
        rows = np.empty((n, 6))
        rows[:, :3] = x
        for j, d in enumerate(Z_DISTS):
            rows[:, 3 + j] = d.sample(rng, n)
        phi = evaluate_batch(spec, rows)
        assert abs(float(g(np.array(x))) - phi.mean()) < 4 * mean_se(phi)


def exhaustive_g_truth(samples):
    """Mean of g over every index vector, via simulation of the system only."""
    spec = three_branch_system(T)
    rng = np.random.default_rng(7)
    means, variances = [], []
    n = 40_000
    for vec in samples.enumerate_index_vectors():
        x = samples.values_matrix(np.array(vec)[None, :])[0]
        rows = np.empty((n, 6))
        rows[:, :3] = x
        for j, d in enumerate(Z_DISTS):
            rows[:, 3 + j] = d.sample(rng, n)
        phi = evaluate_batch(spec, rows)
        means.append(phi.mean())
        variances.append(phi.var() / n)
    return float(np.mean(means)), math.sqrt(sum(variances)) / len(means)


def test_known_g_estimates_exhaustive_mean(x_samples):
    g = three_branch_conditional(T, Z_DISTS)
    truth, truth_se = exhaustive_g_truth(x_samples)
    res = estimate_known_g(g, x_samples, r=20_000, seed=11)
    assert abs(res.estimate - truth) < 4 * math.hypot(res.standard_error, truth_se)


def test_known_g_deterministic_and_vectorized(x_samples):
    g = three_branch_conditional(T, Z_DISTS)
    a = estimate_known_g(g, x_samples, r=300, seed=5, keep_values=True)
    b = estimate_known_g(g, x_samples, r=300, seed=5, keep_values=True,
                         vectorized=True)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.estimate == pytest.approx(float(np.mean(a.values)), abs=1e-15)
    c = estimate_known_g(g, x_samples, r=300, seed=6)
    assert c.estimate != a.estimate
    with pytest.raises(ValueError):
        estimate_known_g(g, x_samples, r=0, seed=5)
    # a scalar or a length-1 result would broadcast over the block
    for bad, shape in ((lambda X: 0.5, "()"), (lambda X: X[:1, 0], "(1,)")):
        with pytest.raises(ValueError, match=re.escape(
                f"got shape {shape} for 7 rows")):
            estimate_known_g(bad, x_samples, r=7, seed=5, vectorized=True)


def test_inner_mc_estimates_same_target(x_samples):
    truth, truth_se = exhaustive_g_truth(x_samples)
    res = estimate_inner_mc(three_branch_system(T), x_samples, Z_DISTS,
                            N=4, r=6000, seed=19)
    assert abs(res.estimate - truth) < 4 * math.hypot(res.standard_error, truth_se)


def test_inner_mc_deterministic(x_samples):
    spec = three_branch_system(T)
    a = estimate_inner_mc(spec, x_samples, Z_DISTS, N=3, r=200, seed=9,
                          keep_values=True)
    b = estimate_inner_mc(spec, x_samples, Z_DISTS, N=3, r=200, seed=9,
                          keep_values=True)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.realizations == 200
    # inner averages lie on the N-grid
    assert set(np.unique(np.round(np.asarray(a.values) * 3, 9))) <= {0.0, 1.0, 2.0, 3.0}


def test_inner_mc_argument_checks(x_samples):
    spec = three_branch_system(T)
    with pytest.raises(ValueError):
        estimate_inner_mc(spec, x_samples, Z_DISTS[:2], N=3, r=10, seed=0)
    with pytest.raises(ValueError):
        estimate_inner_mc(spec, x_samples, Z_DISTS, N=0, r=10, seed=0)


def test_vector_wave_estimates_same_target(x_samples):
    truth, truth_se = exhaustive_g_truth(x_samples)
    spec = three_branch_system(T)
    sizes = {7: 3, 8: 3, 9: 3, 10: 9, 11: 60}
    vals = [wave_estimate_vector_samples(spec, x_samples, Z_DISTS, N=4,
                                         sizes=sizes, seed=s).estimate
            for s in range(40)]
    assert abs(np.mean(vals) - truth) < 4 * math.hypot(mean_se(vals), truth_se)


def test_vector_wave_deterministic(x_samples):
    spec = three_branch_system(T)
    sizes = {7: 2, 8: 2, 9: 2, 10: 4, 11: 8}
    a = wave_estimate_vector_samples(spec, x_samples, Z_DISTS, N=3,
                                     sizes=sizes, seed=31, keep_values=True)
    b = wave_estimate_vector_samples(spec, x_samples, Z_DISTS, N=3,
                                     sizes=sizes, seed=31, keep_values=True)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.realizations == 8
    with pytest.raises(ValueError):
        wave_estimate_vector_samples(spec, x_samples, Z_DISTS, N=3,
                                     sizes={7: 2}, seed=1)


def test_vector_wave_without_z_enumerates_like_the_scalar_cascade(six_tree):
    """With no Z argument and every node sized to its children's product,
    each node enumerates, so every slot holds the exhaustive mean."""
    data = SampleSet.from_json({
        "x1": [9.0, 12.0], "x2": [8.0, 11.0], "x3": [9.0, 15.0],
        "x4": [10.0, 14.0], "x5": [4.0, 6.0], "x6": [5.0, 7.0]})
    sizes = {7: 4, 8: 4, 9: 4, 10: 64, 11: 64}
    want = exhaustive_theta(six_tree, data)
    assert 0.0 < want < 1.0
    for seed, N in [(0, 1), (5, 3), (77, 4)]:
        res = wave_estimate_vector_samples(six_tree, data, [], N, sizes, seed,
                                           keep_values=True)
        assert res.estimate == want
        assert res.realizations == 64
        assert res.values.mean() == want


def test_vector_wave_uniform_z_smoke(x_samples):
    """Bounded Z's keep the indicator's mean inside (0, 1)."""
    spec = three_branch_system(T)
    dists = [uniform(0.0, 2.0)] * 3
    sizes = {7: 3, 8: 3, 9: 3, 10: 6, 11: 30}
    res = wave_estimate_vector_samples(spec, x_samples, dists, N=2,
                                       sizes=sizes, seed=3)
    assert 0.0 < res.estimate < 1.0
