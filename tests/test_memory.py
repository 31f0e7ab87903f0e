"""Memory of the Monte Carlo routes: what one call holds and what it keeps.

A call allocates each full-length array once: the cascade of
:func:`wave_estimate` keeps every sampled node in one of two slabs, floats
and one-byte threshold classes, and
:meth:`EstimateResult.from_values` takes the variance pass in the
realization buffer.  Kept values are the realizations themselves, in an
array of their own.  A wide draw without replacement is read off its
swap targets alone, and a damage study sums each replication's counts as
its walk reads them.
"""

import tracemalloc

import numpy as np
import pytest

from resamplekit import (DamageTruth, EstimateResult, RenewalPair, SampleSet,
                         damage_variance_mc, estimate_exceedance, estimate_inner_mc,
                         estimate_known_g, estimate_theta, exponential,
                         node_sizes, parse_system, three_branch_conditional,
                         three_branch_system, uniform, wave_estimate)
from resamplekit._streams import BLOCK, _code_draws, joined_prefix

from helpers import peak_bytes

TREE6 = "ind(min(max(x1, x2), max(x3, x4), sum(x5, x6)) > t)"
Z_DISTS = [exponential(1.0), exponential(0.5), exponential(2.0)]


@pytest.fixture(scope="module")
def tree6():
    rng = np.random.default_rng(5)
    samples = SampleSet.from_samples(
        [(f"x{i}", rng.exponential(1.0, 50)) for i in range(1, 7)])
    return parse_system(TREE6, params={"t": 1.0}), samples


def _sizes(spec, samples, root_n, other_n):
    return node_sizes(spec, samples, {
        nid: root_n if nid == spec.root_id else other_n
        for nid, _, kids in spec.table if kids})


# -- what one call holds --------------------------------------------------

@pytest.mark.parametrize("root_n, other_n", [(1 << 16, 1 << 16),
                                             (1 << 18, 1 << 12)])
def test_wave_estimate_holds_one_slab(tree6, root_n, other_n):
    # the node samples and the variance pass fit in the slabs, 8 bytes a
    # row for the root and 1 byte a row for the four class nodes under it,
    # plus the per-block temporaries: the picks, the gathered children and
    # a node's values, a few 4,096-row float columns.  Float samples of the
    # class nodes break the bound at 2^16, and a root that outgrows the
    # rest shows a second root-length array at once
    spec, samples = tree6
    sizes = _sizes(spec, samples, root_n, other_n)
    slab = sum(sizes[nid] * (1 if nid in spec.class_levels else 8)
               for nid, _, kids in spec.table if kids)
    peak = peak_bytes(lambda: wave_estimate(spec, samples, sizes, seed=3))
    assert peak <= 1.15 * slab + 4 * 8 * BLOCK


def test_estimate_theta_holds_one_realization_array():
    rng = np.random.default_rng(2)
    spec = parse_system("kofn(2; x1, x2, x3)")
    samples = SampleSet.from_samples(
        [(f"x{i}", rng.random(50)) for i in range(1, 4)])
    r = 1 << 18
    peak = peak_bytes(lambda: estimate_theta(spec, samples, r, seed=4))
    assert peak <= 1.5 * 8 * r


def test_rank_table_holds_one_float_per_cell_of_at_most_block():
    # a grid of BLOCK cells, the largest that gets a table: what the build
    # keeps is the table, 8 bytes a cell, plus the slot and array headers
    rng = np.random.default_rng(6)
    spec = parse_system("kofn(2; x1, x2, x3)")
    samples = SampleSet.from_samples(
        [(f"x{i}", rng.random(16)) for i in range(1, 4)])
    assert samples.admissible_count() == BLOCK
    estimate_theta(spec, samples, 10, seed=1)  # the slot takes the system
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        estimate_theta(spec, samples, 10, seed=2)  # builds the table
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert samples._seeded[1][0].nbytes == 8 * BLOCK
    assert kept <= 8 * BLOCK + 2048


def test_wave_estimate_keeps_nothing_after_it_returns(tree6):
    # a buffer kept across calls would hold at least one node sample
    spec, samples = tree6
    sizes = _sizes(spec, samples, 1 << 16, 1 << 16)
    wave_estimate(spec, samples, sizes, seed=8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        wave_estimate(spec, samples, sizes, seed=8, keep_values=False)
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 64 * 1024


def test_wide_prefix_read_holds_only_swap_targets():
    # four of 10^6 take the select route: the draws, the (k, rows) swap
    # targets and a position's temporaries, about 14 bytes per target,
    # where a positions-major swap table would hold n entries per row
    n, k = 10**6, 4

    def read():
        prefix = joined_prefix(n, k, [_code_draws(np.random.default_rng(9),
                                                  n, k, BLOCK)], n)
        live = None
        for i in range(k):
            prefix.position(i, live)
            live = np.arange(0, BLOCK, 2) if live is None else live[::2]

    assert peak_bytes(read) <= 24 * k * BLOCK


def test_damage_study_holds_no_count_per_realization():
    # at r = BLOCK + 1 each replication takes two chunks, and its counts
    # are summed as they are read: a (replications, r) count array alone
    # would be 64 * 4097 * 8 bytes, about 2 MB
    truth = DamageTruth(rate=0.8, degradation=uniform(0.0, 2.0))
    assert peak_bytes(lambda: damage_variance_mc(
        truth, 5, 8, 3.0, r=BLOCK + 1, replications=64, seed=4)) < 1 << 20


# -- kept values ----------------------------------------------------------

def _estimators(tree6):
    spec6, samples6 = tree6
    x = SampleSet.from_json({"x1": [0.4, 1.3, 0.9], "x2": [1.2, 0.6, 2.0],
                             "x3": [0.2, 0.7, 1.1]})
    branch = three_branch_system(1.0)
    g = three_branch_conditional(1.0, Z_DISTS)
    pair = RenewalPair([3.0, 1.0, 4.0, 2.0], [2.5, 0.5, 3.5, 1.5],
                       m_x=2, m_y=1)
    sizes = _sizes(spec6, samples6, 5000, 3000)
    return {
        "estimate_theta": lambda keep: estimate_theta(
            spec6, samples6, 5000, seed=1, keep_values=keep),
        "estimate_known_g": lambda keep: estimate_known_g(
            g, x, 5000, seed=2, vectorized=True, keep_values=keep),
        "estimate_inner_mc": lambda keep: estimate_inner_mc(
            branch, x, Z_DISTS, 4, 5000, seed=3, keep_values=keep),
        "estimate_exceedance": lambda keep: estimate_exceedance(
            pair, 5000, seed=4, keep_values=keep),
        "wave_estimate": lambda keep: wave_estimate(
            spec6, samples6, sizes, seed=5, keep_values=keep),
    }


@pytest.mark.parametrize("name", ["estimate_theta", "estimate_known_g",
                                  "estimate_inner_mc", "estimate_exceedance",
                                  "wave_estimate"])
def test_kept_values_are_the_realizations_in_their_own_array(tree6, name):
    run = _estimators(tree6)[name]
    kept, plain = run(True), run(False)
    values = kept.values
    assert plain.values is None
    assert values.flags.owndata and values.base is None
    assert len(values) == kept.realizations == 5000
    # deviations would sum to about 0, not to r times the estimate
    assert np.add.reduce(values) / len(values) == kept.estimate
    assert np.var(values, ddof=1) == kept.empirical_variance
    assert (kept.estimate, kept.empirical_variance) \
        == (plain.estimate, plain.empirical_variance)


# -- the variance pass ----------------------------------------------------

def test_from_values_leaves_a_read_only_array_as_it_was():
    base = np.random.default_rng(6).standard_normal(1000)
    values = np.broadcast_to(base, base.shape)
    got = EstimateResult.from_values(values, 6)
    np.testing.assert_array_equal(values, base)
    assert got.estimate == base.mean()
    assert got.empirical_variance == np.var(base, ddof=1)


def test_from_values_in_place_gives_the_copy_bits():
    values = np.random.default_rng(7).standard_normal(10_001) * 1e3 + 5.0
    kept = EstimateResult.from_values(values.copy(), 7, keep_values=True)
    every_other = np.repeat(values, 2)[::2]
    strided = EstimateResult.from_values(every_other, 7)
    np.testing.assert_array_equal(every_other, values)
    in_place = EstimateResult.from_values(values.copy(), 7)
    for got in (strided, in_place):
        assert np.float64(got.estimate).tobytes() \
            == np.float64(kept.estimate).tobytes()
        assert np.float64(got.empirical_variance).tobytes() \
            == np.float64(kept.empirical_variance).tobytes()
