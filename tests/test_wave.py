import itertools
import math
import re
import sys

import numpy as np
import pytest
from scipy import stats

import resamplekit.wave as wave_module
from resamplekit import (SampleSet, default_node_sizes, estimate_theta,
                         exhaustive_moments, exhaustive_theta, exponential,
                         hierarchical_variance, node_sizes, parse_system,
                         propagate_pair_probabilities, three_branch_system,
                         wave_estimate, wave_estimate_vector_samples)
from resamplekit._streams import BLOCK

from helpers import (pattern_probabilities, trace_wave_patterns, var_se,
                     vector_wave_oracle, wave_oracle)


@pytest.fixture(scope="module")
def six_data():
    return SampleSet.from_json({
        "x1": [9.0, 12.0], "x2": [8.0, 11.0], "x3": [9.0, 15.0],
        "x4": [10.0, 14.0], "x5": [4.0, 6.0], "x6": [5.0, 7.0]})


# -- size plumbing --------------------------------------------------------

def test_node_sizes_requires_all_internal(six_tree, six_data):
    with pytest.raises(ValueError):
        node_sizes(six_tree, six_data, {7: 3, 8: 3})  # 9, 10, 11 missing
    sizes = node_sizes(six_tree, six_data, {7: 3, 8: 3, 9: 3, 10: 5, 11: 4})
    assert sizes[1] == 2 and sizes[7] == 3 and sizes[11] == 4
    with pytest.raises(ValueError):
        node_sizes(six_tree, six_data, {7: 0, 8: 3, 9: 3, 10: 5, 11: 4})


MISSING = object()
# six_tree's nodes: max(x1, x2) is 7 and the root 11
GOOD_SIZES = {7: 3, 8: 3, 9: 3, 10: 5, 11: 4}


def call_with_sizes(which, spec, data, sizes):
    if which == "node_sizes":
        return node_sizes(spec, data, sizes)
    full = {i: 2 for i in range(1, 7)} | sizes
    if which == "wave_estimate":
        return wave_estimate(spec, data, full, seed=1)
    if which == "propagate_pair_probabilities":
        return propagate_pair_probabilities(spec, full)
    if which == "hierarchical_variance":
        return hierarchical_variance(spec, data, full)
    # x1..x3 from the data, x4..x6 known
    part = SampleSet.from_json({f"x{i}": data.values_for_arg(i).tolist()
                                for i in (1, 2, 3)})
    return wave_estimate_vector_samples(spec, part, [exponential(1.0)] * 3,
                                        2, sizes, seed=1)


@pytest.mark.parametrize("bad", [0, -1, 2.5, 2.7, math.nan, True, MISSING],
                         ids=["0", "-1", "2.5", "2.7", "nan", "True",
                              "missing"])
@pytest.mark.parametrize("which, node", [
    (which, node)
    for which in ("node_sizes", "wave_estimate", "propagate_pair_probabilities",
                  "hierarchical_variance", "wave_estimate_vector_samples")
    # the propagation reads the sizes of children only, not the root's
    for node in ((7,) if which == "propagate_pair_probabilities" else (7, 11))
])
def test_every_size_reader_rejects_a_bad_size(six_tree, six_data, which,
                                              node, bad):
    sizes = dict(GOOD_SIZES)
    if bad is MISSING:
        del sizes[node]
        message = f"no size given for node {node}"
    else:
        sizes[node] = bad
        message = f"node {node} size must be a positive integer, got {bad}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        call_with_sizes(which, six_tree, six_data, sizes)


def test_sizes_take_any_integer_type(six_tree, six_data):
    sizes = {7: np.int64(3), 8: np.int32(3), 9: 3.0, 10: np.uint8(5),
             11: np.float64(4.0)}
    got = node_sizes(six_tree, six_data, sizes)
    assert got == {**{i: 2 for i in range(1, 7)}, **GOOD_SIZES}
    assert all(type(n) is int for n in list(got.values())[6:])
    assert wave_estimate(six_tree, six_data, got, seed=3).estimate == \
        wave_estimate(six_tree, six_data, node_sizes(six_tree, six_data,
                                                     GOOD_SIZES), seed=3).estimate


def test_default_node_sizes_min_of_children(six_tree):
    s = SampleSet.from_json({
        "x1": [1.0] * 5, "x2": [1.0] * 3, "x3": [1.0] * 4, "x4": [1.0] * 6,
        "x5": [1.0] * 2, "x6": [1.0] * 9})
    sizes = default_node_sizes(six_tree, s)
    assert sizes[7] == 3    # min(5, 3)
    assert sizes[8] == 4    # min(4, 6)
    assert sizes[9] == 2    # min(2, 9)
    assert sizes[10] == 2   # min(3, 4, 2)
    assert sizes[11] == 2


def test_wave_rejects_shared_blocks(two_of_three):
    s = SampleSet.from_samples([("p", [1.0, 2.0, 3.0]), ("c", [1.0, 2.0])],
                               blocks={1: "p", 2: "p", 3: "c"})
    with pytest.raises(ValueError):
        default_node_sizes(two_of_three, s)


# -- estimates ------------------------------------------------------------

def test_wave_estimate_deterministic(six_tree, six_data):
    sizes = node_sizes(six_tree, six_data, {7: 3, 8: 3, 9: 3, 10: 6, 11: 5})
    a = wave_estimate(six_tree, six_data, sizes, seed=21, keep_values=True)
    b = wave_estimate(six_tree, six_data, sizes, seed=21, keep_values=True)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.realizations == 5
    assert a.estimate == float(np.mean(a.values))
    assert set(np.unique(a.values)) <= {0.0, 1.0}


def test_wave_estimate_trivial_high_level(six_tree, six_data):
    # every data value is far below t=10 aggregated? use a huge level instead
    spec = parse_system("ind(min(max(x1, x2), min(x3, x4), sum(x5, x6)) < t)",
                        params={"t": 1e9})
    sizes = node_sizes(spec, six_data, {7: 3, 8: 3, 9: 3, 10: 4, 11: 6})
    res = wave_estimate(spec, six_data, sizes, seed=2)
    assert res.estimate == 1.0


def test_wave_full_enumeration_equals_exhaustive(six_tree, six_data):
    """Sized to the enumeration counts, the cascade is the exhaustive mean."""
    sizes = node_sizes(six_tree, six_data, {7: 4, 8: 4, 9: 4, 10: 64, 11: 64})
    res = wave_estimate(six_tree, six_data, sizes, seed=77)
    assert res.estimate == exhaustive_theta(six_tree, six_data)
    assert res.realizations == 64
    # and the equality is seed-independent
    assert wave_estimate(six_tree, six_data, sizes, seed=1).estimate == res.estimate


def test_wave_chain_singleton_equals_flat():
    chain = parse_system("ind(max(min(x1)) > 1)")
    s = SampleSet.from_json({"x1": [2.0]})
    sizes = node_sizes(chain, s, {2: 1, 3: 1, 4: 1})
    assert wave_estimate(chain, s, sizes, seed=0).estimate == \
        estimate_theta(chain, s, r=1, seed=0).estimate == 1.0


def test_wave_unbiased_on_redraws(six_tree):
    """Grand mean over fresh exponential data approaches the exhaustive truth.

    With continuous data the wave estimate is unbiased for Theta; a modest
    replication count checks the plumbing (the strict 3-sigma budget run
    lives in the acceptance suite for the flat estimator).
    """
    rng = np.random.default_rng(314)
    vals = []
    for _ in range(400):
        s = SampleSet.from_json(
            {f"x{i}": rng.exponential(20.0, 2).tolist() for i in range(1, 7)})
        sizes = node_sizes(six_tree, s, {7: 2, 8: 2, 9: 2, 10: 3, 11: 20})
        vals.append(wave_estimate(six_tree, s, sizes, seed=int(rng.integers(2**31))).estimate)
    # Monte Carlo truth over the same generators, computed without the library
    draws = rng.exponential(20.0, size=(200_000, 6))
    phi = np.minimum.reduce([
        np.maximum(draws[:, 0], draws[:, 1]),
        np.minimum(draws[:, 2], draws[:, 3]),
        draws[:, 4] + draws[:, 5]]) < 10.0
    truth = phi.mean()
    se = np.sqrt(np.var(vals, ddof=1) / len(vals) + phi.var() / phi.size)
    assert abs(np.mean(vals) - truth) < 4 * se


# -- threshold classes and merged picks -----------------------------------

NAN_TREE = "ind(max(sum(sum(x1, x2), sum(x3, x4)), x5) {} 0)"


@pytest.mark.parametrize("op", [">", "<"])
def test_a_region_that_could_be_nan_keeps_its_float_values(op):
    """1e308 + 1e308 - (1e308 + 1e308) is NaN, which is neither above nor
    at most the level, so the max's region is left out of the class map
    and both cascades give the oracles' bits."""
    spec = parse_system(NAN_TREE.format(op))
    assert dict(spec.class_levels) == {}
    data = {"x1": [1e308, 1.0], "x2": [1e308, 2.0], "x3": [-1e308, 0.5],
            "x4": [-1e308, -3.0], "x5": [-1.0, 1.0]}
    full = SampleSet.from_json(data)
    four = SampleSet.from_json({k: v for k, v in data.items() if k != "x5"})
    sizes = {nid: 300 for nid, _, kids in spec.table if kids}
    with np.errstate(over="ignore", invalid="ignore"):
        got = wave_estimate(spec, full, sizes, seed=4, keep_values=True)
        want = wave_oracle(spec, full, sizes, seed=4)
        vec = wave_estimate_vector_samples(spec, four, [exponential(1.0)], 3,
                                           sizes, seed=4, keep_values=True)
        vec_want = vector_wave_oracle(spec, four, [exponential(1.0)], 3,
                                      sizes, seed=4)
    for a, b in ((got, want), (vec, vec_want)):
        for name in ("estimate", "empirical_variance", "values"):
            assert np.asarray(getattr(a, name)).tobytes() \
                == np.asarray(getattr(b, name)).tobytes()
    # the region holds NaN rows: read through classes, max(NaN, x5) > 0
    # would follow x5
    assert 0.0 < got.estimate < 1.0


class CountingStream:
    """A generator stand-in that counts its ``integers`` calls."""

    def __init__(self, rng, counts, key):
        self._rng, self._counts, self._key = rng, counts, key

    def integers(self, *args, **kwargs):
        self._counts[self._key] = self._counts.get(self._key, 0) + 1
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def counted_picks(monkeypatch):
    """Patch the cascade's block streams; return ``{(node, block): calls}``."""
    counts = {}
    real = wave_module.block_streams

    def streams(total, seed, lane, nid):
        for b, (start, stop, rng) in enumerate(real(total, seed, lane, nid)):
            yield start, stop, CountingStream(rng, counts, (nid, b))

    monkeypatch.setattr(wave_module, "block_streams", streams)
    return counts


def test_one_pick_draw_per_run_of_equal_size_siblings(monkeypatch):
    """TREE6 with x4 and sum(x5, x6) sized apart from their siblings: the
    max over x3, x4 and the min over the three branches draw twice per
    block, every other node once."""
    spec = parse_system(
        "ind(min(max(x1, x2), max(x3, x4), sum(x5, x6)) > t)", {"t": 1.0})
    rng = np.random.default_rng(9)
    samples = SampleSet.from_samples(
        [(f"x{i}", rng.exponential(1.0, 40 if i == 4 else 50))
         for i in range(1, 7)])
    sizes = node_sizes(spec, samples, {7: 5000, 8: 5000, 9: 3000, 10: 9000,
                                       11: 5000})
    counts = counted_picks(monkeypatch)
    got = wave_estimate(spec, samples, sizes, seed=6, keep_values=True)
    runs = {7: 1, 8: 2, 9: 1, 10: 2, 11: 1}
    assert counts == {(nid, b): runs[nid] for nid in runs
                      for b in range(-(-sizes[nid] // BLOCK))}
    monkeypatch.undo()
    assert got.values.tobytes() \
        == wave_oracle(spec, samples, sizes, seed=6).values.tobytes()


def test_z_children_split_the_runs_of_picks(monkeypatch):
    """In the three-branch system every data child sits beside a Z child,
    and the root min's three branches of one size share one draw."""
    spec = three_branch_system(1.0)
    z_dists = [exponential(1.0), exponential(0.5), exponential(2.0)]
    samples = SampleSet.from_json({"x1": [0.4, 1.3, 0.9], "x2": [1.2, 0.6],
                                   "x3": [0.2, 0.7, 1.1]})
    sizes = {7: 100, 8: 100, 9: 100, 10: BLOCK + 5, 11: 50}
    counts = counted_picks(monkeypatch)
    got = wave_estimate_vector_samples(spec, samples, z_dists, 2, sizes,
                                       seed=3, keep_values=True)
    assert counts == {(7, 0): 1, (8, 0): 1, (9, 0): 1, (10, 0): 1,
                      (10, 1): 1, (11, 0): 1}
    monkeypatch.undo()
    want = vector_wave_oracle(spec, samples, z_dists, 2, sizes, seed=3)
    assert got.values.tobytes() == want.values.tobytes()


# -- propagation ----------------------------------------------------------

def test_propagation_leaf_base_and_closure(six_tree):
    sizes = {i: 3 for i in range(1, 12)}
    prop = propagate_pair_probabilities(six_tree, sizes)
    for i in range(1, 7):
        assert prop.tables[i] == {frozenset(): 1.0}
    for nid, table in prop.tables.items():
        assert abs(sum(table.values()) - 1.0) < 1e-12
        assert all(p > 0 for p in table.values())


def test_propagation_arm_counts(six_tree):
    prop = propagate_pair_probabilities(six_tree, {i: 3 for i in range(1, 12)})
    assert prop.arm_counts == {7: 4, 8: 4, 9: 4, 10: 8, 11: 2}


def test_propagation_first_level_is_flat_law(six_tree):
    """A node over two leaves has the plain per-argument coincidence law."""
    sizes = {i: s for i, s in zip(range(1, 12), (3, 2, 4, 3, 2, 3, 4, 3, 3, 5, 4))}
    prop = propagate_pair_probabilities(six_tree, sizes)
    n1, n2 = sizes[1], sizes[2]
    table = prop.tables[7]
    assert table[frozenset()] == pytest.approx((1 - 1/n1) * (1 - 1/n2))
    assert table[frozenset({1})] == pytest.approx((1/n1) * (1 - 1/n2))
    assert table[frozenset({2})] == pytest.approx((1 - 1/n1) * (1/n2))
    assert table[frozenset({1, 2})] == pytest.approx((1/n1) * (1/n2))


def test_propagation_size_one_child_always_shares(six_tree):
    """n=1 intermediates force the delta branch: their leaves are always shared."""
    sizes = {i: 2 for i in range(1, 7)} | {7: 1, 8: 2, 9: 2, 10: 3, 11: 2}
    prop = propagate_pair_probabilities(six_tree, sizes)
    root = prop.tables[10]
    # every pattern reaching the 3-child node contains {1,2} via node 7
    assert all(frozenset({1, 2}) <= s for s in root)


def test_propagation_is_linear_in_chain_depth():
    """On a deep one-child chain every child has one leaf, so propagation
    takes a bounded number of traced lines per node, however deep the
    chain (a leaf-set lookup that scans the subtree takes ~depth**2 / 2)."""
    depth = 2000
    spec = parse_system("max(" * depth + "x1" + ")" * depth)
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count

    outer = sys.gettrace()
    sys.settrace(count)
    try:
        prop = propagate_pair_probabilities(
            spec, {nid: 2 for nid, _, _ in spec.table})
    finally:
        sys.settrace(outer)
    assert lines < 100 * depth
    assert set(prop.root_table) <= {frozenset(), frozenset({1})}
    assert sum(prop.root_table.values()) == pytest.approx(1.0)


def test_delta_indicator(six_tree):
    prop = propagate_pair_probabilities(six_tree, {i: 3 for i in range(1, 12)})
    rng = np.random.default_rng(5)
    leaves = [frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6}),
              frozenset({1, 2, 3, 4, 5, 6})]
    for deps in leaves:
        for _ in range(20):
            omega = frozenset(int(i) for i in rng.choice(6, rng.integers(0, 7),
                                                         replace=False) + 1)
            assert prop.delta(deps, omega) == (deps <= omega)


def test_propagation_matches_index_tracking(six_tree):
    """Pattern frequencies from raw cascade simulation match the recursion."""
    sizes = {1: 3, 2: 2, 3: 4, 4: 3, 5: 2, 6: 3, 7: 4, 8: 3, 9: 2, 10: 4, 11: 3}
    prop = propagate_pair_probabilities(six_tree, sizes)
    probs = pattern_probabilities(prop.root_table, six_tree.m)
    counts = trace_wave_patterns(six_tree, sizes, 200_000,
                                 np.random.default_rng(2024))
    expected = probs * counts.sum()
    live = expected > 0
    assert counts[~live].sum() == 0           # impossible patterns never occur
    assert stats.chisquare(counts[live], expected[live]).pvalue > 0.01


# -- variance -------------------------------------------------------------

def test_hierarchical_variance_two_leaf_min():
    """Report matches the spread of repeated cascade runs on fixed data."""
    spec = parse_system("min(x1, x2)")
    s = SampleSet.from_json({"x1": [1.0, 4.0], "x2": [2.0, 3.0]})
    sizes = node_sizes(spec, s, {3: 2})
    rep = hierarchical_variance(spec, s, sizes)
    assert rep.mode == "empirical"
    assert rep.r == 2
    estimates = np.array([
        wave_estimate(spec, s, sizes, seed=k).estimate for k in range(20_000)])
    emp = float(np.var(estimates, ddof=1))
    assert abs(emp - rep.variance) < 4 * var_se(estimates)


def test_hierarchical_variance_rejects_a_leaf_size_off_its_sample():
    """Leaf sizes must be the data's: a leaf entry of 50 for a 2-value
    sample used to change the variance (0.13715 -> 0.13271) silently."""
    spec = parse_system("ind(min(max(x1, x2), x3) < 2.0)")
    s = SampleSet.from_json({"x1": [1.0, 3.0], "x2": [0.5, 2.5],
                             "x3": [1.5, 2.2]})
    sizes = node_sizes(spec, s, {4: 3, 5: 3, 6: 3})
    assert hierarchical_variance(spec, s, sizes).variance == \
        pytest.approx(0.13715, abs=1e-5)
    sizes[1] = 50
    with pytest.raises(ValueError, match=re.escape(
            "node 1 size must be its sample's size 2, got 50") + "$"):
        hierarchical_variance(spec, s, sizes)


def test_hierarchical_variance_six_tree_seeded_runs(six_tree, six_data):
    sizes = node_sizes(six_tree, six_data, {7: 2, 8: 2, 9: 2, 10: 3, 11: 3})
    rep = hierarchical_variance(six_tree, six_data, sizes)
    total = sum(row.probability for row in rep.rows)
    assert total == pytest.approx(1.0, abs=1e-12)
    estimates = np.array([
        wave_estimate(six_tree, six_data, sizes, seed=k).estimate
        for k in range(12_000)])
    emp = float(np.var(estimates, ddof=1))
    assert abs(emp - rep.variance) < 4 * var_se(estimates)


def test_hierarchical_variance_size_one_intermediates(six_tree, six_data):
    """All n_v=1 above the leaves: the root sample repeats one realization."""
    sizes = node_sizes(six_tree, six_data, {7: 1, 8: 1, 9: 1, 10: 1, 11: 1})
    rep = hierarchical_variance(six_tree, six_data, sizes)
    mom = exhaustive_moments(six_tree, six_data)
    # r = 1: variance is the single-realization variance mu2 - mu^2
    assert rep.r == 1
    assert rep.variance == pytest.approx(mom.mu2 - mom.mu**2, abs=1e-12)


def test_hierarchical_variance_generator_mode(six_tree):
    dists = [exponential(0.25)] * 6
    sizes = {i: 2 for i in range(1, 7)} | {7: 2, 8: 2, 9: 2, 10: 3, 11: 4}
    rep = hierarchical_variance(six_tree, dists, sizes, seed=6, mc_draws=20_000)
    assert rep.mode == "generator"
    assert rep.variance_se > 0
    assert rep.mu2 == pytest.approx(rep.mu, abs=1e-15)
    assert rep.variance >= -1e-12
