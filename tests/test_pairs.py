import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from resamplekit import (AlphaPair, BetaPair, BlockLayout, BudgetExceededError,
                         OmegaPair, SampleSet, alpha_probability, beta_probability,
                         conditional_mixed_moment, empirical, enumerate_pairs,
                         estimate_theta, exhaustive_moments, exponential,
                         hierarchical_variance, omega_probability,
                         pair_probability, parse_system, resampling_variance)
from resamplekit.pairs import alpha_from_indices, beta_from_indices, omega_from_indices
from resamplekit.systems import evaluate

from helpers import class_moment_oracle, var_se


def admissible_vectors(layout: BlockLayout):
    """All admissible 0-based index vectors, built directly from the layout."""
    per_block = [itertools.permutations(range(size), len(args))
                 for args, size in zip(layout.block_args, layout.block_sizes)]
    for combo in itertools.product(*per_block):
        vec = [0] * layout.m
        for args, picks in zip(layout.block_args, combo):
            for a, j in zip(args, picks):
                vec[a - 1] = j
        yield tuple(vec)


# -- omega ----------------------------------------------------------------

def test_omega_anchors():
    sizes = (3, 3, 3)
    assert omega_probability(OmegaPair(frozenset()), sizes) == pytest.approx(8 / 27)
    assert omega_probability(OmegaPair(frozenset({1, 2, 3})), sizes) == pytest.approx(1 / 27)
    ones = (1, 1, 1)
    assert omega_probability(OmegaPair(frozenset({1, 2, 3})), ones) == 1.0
    assert omega_probability(OmegaPair(frozenset({1})), ones) == 0.0


@pytest.mark.parametrize("sizes, exc", [
    ((0, 2), ValueError), ((-1, 2), ValueError), ((2.5, 2), TypeError),
    ((True, 2), TypeError)])
def test_omega_probability_checks_each_size(sizes, exc):
    """A size of 0 divided by zero; a float or bool was truncated."""
    with pytest.raises(exc, match="sample size"):
        omega_probability({1}, sizes)


def test_omega_probability_counting_oracle():
    """Compare against exhaustive counting of coincidence patterns."""
    sizes = (2, 3, 4)
    vectors = list(itertools.product(*(range(n) for n in sizes)))
    counts: dict[frozenset, int] = {}
    for v, w in itertools.product(vectors, repeat=2):
        pat = frozenset(i + 1 for i in range(3) if v[i] == w[i])
        counts[pat] = counts.get(pat, 0) + 1
    total = len(vectors) ** 2
    for pat, c in counts.items():
        assert omega_probability(OmegaPair(pat), sizes) == pytest.approx(
            c / total, abs=1e-12)


# -- alpha ----------------------------------------------------------------

@pytest.mark.parametrize("n, m", [(4, 2), (7, 3), (10, 5), (6, 1)])
def test_alpha_single_block_hypergeometric(n, m):
    lay = BlockLayout(block_args=(tuple(range(1, m + 1)),), block_sizes=(n,))
    for a in range(m + 1):
        assert alpha_probability(AlphaPair((a,)), lay) == pytest.approx(
            stats.hypergeom.pmf(a, n, m, m), abs=1e-12)


def test_alpha_anchor_4_choose_2():
    lay = BlockLayout(block_args=((1, 2),), block_sizes=(4,))
    probs = [alpha_probability(AlphaPair((a,)), lay) for a in (0, 1, 2)]
    assert probs == [pytest.approx(1 / 6), pytest.approx(2 / 3), pytest.approx(1 / 6)]


def test_alpha_zero_overlap_impossible_when_tight():
    # two draws of 2 from 3 must share at least one element
    lay = BlockLayout(block_args=((1, 2),), block_sizes=(3,))
    assert alpha_probability(AlphaPair((0,)), lay) == 0.0


@pytest.mark.parametrize("counts", [(-1, 0, 0), (0, 2, 0)])
def test_alpha_count_outside_its_block_raises(counts):
    with pytest.raises(ValueError, match="the count must be in 0..1"):
        alpha_probability(AlphaPair(counts), [3, 3, 3])


@pytest.mark.parametrize("law", [exponential(1.0), empirical([1.0, 2.0])])
def test_pattern_without_matching_raises_on_every_generator_route(law):
    """alpha(2, 0, 0) shares two elements of a one-argument block: no
    matching has it, under a finite support or a continuous law."""
    with pytest.raises(ValueError, match=r"alpha\(2, 0, 0\) has probability 0"):
        conditional_mixed_moment(parse_system("kofn(2; x1, x2, x3)"),
                                 [law] * 3, AlphaPair((2, 0, 0)))


def test_alpha_counting_oracle():
    lay = BlockLayout(block_args=((1, 2), (3,)), block_sizes=(4, 2))
    vectors = list(admissible_vectors(lay))
    counts: dict[tuple, int] = {}
    for v, w in itertools.product(vectors, repeat=2):
        a1 = len({v[0], v[1]} & {w[0], w[1]})
        a2 = int(v[2] == w[2])
        counts[(a1, a2)] = counts.get((a1, a2), 0) + 1
    total = len(vectors) ** 2
    for alpha, c in counts.items():
        assert alpha_probability(AlphaPair(alpha), lay) == pytest.approx(
            c / total, abs=1e-12)


def test_alpha_simulation_oracle():
    """Without-replacement overlap frequencies follow the stated law."""
    lay = BlockLayout(block_args=((1, 2, 3),), block_sizes=(8,))
    rng = np.random.default_rng(17)
    draws = 20_000
    overlaps = np.array([
        len(set(rng.choice(8, 3, replace=False)) & set(rng.choice(8, 3, replace=False)))
        for _ in range(draws)])
    for a in range(4):
        p = alpha_probability(AlphaPair((a,)), lay)
        freq = float(np.mean(overlaps == a))
        se = math.sqrt(p * (1 - p) / draws)
        assert abs(freq - p) < 4 * se


# -- beta -----------------------------------------------------------------

def test_beta_worked_example():
    lay = BlockLayout(block_args=((1, 2), (3, 4, 5)), block_sizes=(5, 5))
    jq = np.array([4, 1, 2, 3, 1])
    jq2 = np.array([1, 2, 2, 4, 3])
    assert beta_from_indices(jq, jq2, lay) == BetaPair((0, 1, 3, 5, 0))
    assert alpha_from_indices(jq, jq2, lay) == AlphaPair((1, 2))


def test_beta_full_and_empty():
    lay = BlockLayout(block_args=((1,), (2,), (3,)), block_sizes=(4, 4, 4))
    v = np.array([1, 2, 3])
    assert beta_from_indices(v, v, lay) == BetaPair((1, 2, 3))
    assert beta_from_indices(v, np.array([2, 3, 1]), lay) == BetaPair((0, 0, 0))


def test_beta_counting_oracle():
    lay = BlockLayout(block_args=((1, 2), (3,)), block_sizes=(3, 2))
    vectors = list(admissible_vectors(lay))
    counts: dict[BetaPair, int] = {}
    for v, w in itertools.product(vectors, repeat=2):
        beta = []
        for args in lay.block_args:
            for i in args:
                hit = next((a for a in args if v[i - 1] == w[a - 1]), 0)
                beta.append(hit)
        key = BetaPair(tuple(beta))
        counts[key] = counts.get(key, 0) + 1
    total = len(vectors) ** 2
    assert sum(counts.values()) == total
    for beta, c in counts.items():
        assert beta_probability(beta, lay) == pytest.approx(c / total, abs=1e-12)


def test_beta_degenerates_to_omega():
    """With singleton blocks the beta support is the omega set."""
    lay = BlockLayout(block_args=((1,), (2,), (3,), (4,)), block_sizes=(3, 2, 5, 4))
    rng = np.random.default_rng(23)
    for _ in range(100):
        v = np.array([rng.integers(n) for n in lay.block_sizes])
        w = np.array([rng.integers(n) for n in lay.block_sizes])
        beta = beta_from_indices(v, w, lay)
        omega = omega_from_indices(v, w)
        assert frozenset(i + 1 for i, b in enumerate(beta.beta) if b) == omega.args
        assert beta_probability(beta, lay) == pytest.approx(
            omega_probability(omega, lay.sizes), abs=1e-14)


# -- enumeration and closure ----------------------------------------------

def test_enumerate_pairs_families():
    singleton = BlockLayout(block_args=((1,), (2,), (3,)), block_sizes=(3, 3, 3))
    omegas = enumerate_pairs(singleton)
    assert len(omegas) == 8
    assert all(isinstance(p, OmegaPair) for p, _ in omegas)

    blocked = BlockLayout(block_args=((1, 2), (3,)), block_sizes=(4, 2))
    alphas = enumerate_pairs(blocked)
    assert all(isinstance(p, AlphaPair) for p, _ in alphas)
    assert len(alphas) == 3 * 2  # (m1+1)(m2+1)

    betas = enumerate_pairs(blocked, family="beta")
    assert all(isinstance(p, BetaPair) for p, _ in betas)
    assert sum(pr for _, pr in betas) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("layout", [
    BlockLayout(block_args=((1,), (2,)), block_sizes=(5, 9)),
    BlockLayout(block_args=((1, 2, 3),), block_sizes=(7,)),
    BlockLayout(block_args=((1, 3), (2,), (4, 5)), block_sizes=(6, 3, 4)),
])
def test_pair_closure(layout):
    for family in ("auto", "beta"):
        table = enumerate_pairs(layout, family=family)
        assert sum(p for _, p in table) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0 for _, p in table)


def test_pair_probability_dispatch():
    lay = BlockLayout(block_args=((1, 2), (3,)), block_sizes=(4, 3))
    assert pair_probability(AlphaPair((1, 0)), lay) == alpha_probability(AlphaPair((1, 0)), lay)
    assert pair_probability(BetaPair((0, 0, 0)), lay) == beta_probability(BetaPair((0, 0, 0)), lay)
    sing = BlockLayout(block_args=((1,), (2,)), block_sizes=(3, 3))
    assert pair_probability(OmegaPair(frozenset({1})), sing) == \
        omega_probability(OmegaPair(frozenset({1})), (3, 3))


def test_enumerate_pairs_budget():
    lay = BlockLayout(block_args=tuple((i,) for i in range(1, 25)),
                      block_sizes=(3,) * 24)
    with pytest.raises(BudgetExceededError):
        enumerate_pairs(lay, budget=1000)  # 2^24 omega pairs


# -- conditional mixed moments --------------------------------------------

def test_mixed_moment_full_coincidence_is_mu2(two_of_three, small_samples):
    mom = exhaustive_moments(two_of_three, small_samples)
    full = conditional_mixed_moment(two_of_three, small_samples,
                                    OmegaPair(frozenset({1, 2, 3})))
    assert full.value == pytest.approx(mom.mu2, abs=1e-14)
    assert full.method == "empirical-exact"


def test_mixed_moment_generator_empty_pair_is_mu_squared(two_of_three):
    """With fresh data per draw, disjoint resamples are truly independent."""
    from resamplekit import exponential
    dists = [exponential(1.0)] * 3
    layout = BlockLayout(block_args=((1,), (2,), (3,)), block_sizes=(4, 4, 4))
    p = math.exp(-1.0)
    theta = 3 * p**2 * (1 - p) + p**3
    mm = conditional_mixed_moment(two_of_three, dists, OmegaPair(frozenset()),
                                  layout=layout, seed=5, mc_draws=100_000)
    assert mm.se > 0
    assert abs(mm.value - theta**2) < 5 * mm.se


def test_generator_grid_is_exact_on_finite_supports(two_of_three):
    dists = [empirical([0.5, 1.5, 2.0])] * 3
    mu = 20 / 27  # at least two of three values above 1, each w.p. 2/3
    fresh = conditional_mixed_moment(two_of_three, dists, OmegaPair(frozenset()))
    assert fresh.method == "generator-exact" and fresh.se == 0.0
    assert fresh.value == pytest.approx(mu * mu, abs=1e-15)
    shared = conditional_mixed_moment(two_of_three, dists,
                                      OmegaPair(frozenset({1, 2, 3})))
    assert shared.value == pytest.approx(mu, abs=1e-15)


def test_generator_matchings_stay_within_their_blocks(two_of_three):
    """Generator mode takes one block per argument unless given a layout,
    and a matching that leaves its block is an error, as on data."""
    dists = [empirical([0.5, 1.5, 2.0])] * 3
    with pytest.raises(ValueError, match="outside its block"):
        conditional_mixed_moment(two_of_three, dists, BetaPair((2, 1, 0)))
    layout = BlockLayout(((1, 2), (3,)), (3, 3))
    swap = conditional_mixed_moment(two_of_three, dists, BetaPair((2, 1, 0)),
                                    layout=layout)
    keep = conditional_mixed_moment(two_of_three, dists, BetaPair((1, 2, 0)),
                                    layout=layout)
    # a 2-of-3 does not see the order of its arguments
    assert swap == keep and swap.method == "generator-exact"


def test_generator_grid_over_budget_raises(two_of_three):
    """Budgets raise on the generator route as on data; no Monte Carlo
    stands in for an exact moment."""
    dists = [empirical([0.5, 1.5, 2.0])] * 3
    layout = BlockLayout.singleton((3, 3, 3))
    with pytest.raises(BudgetExceededError, match="pair-moment tensor"):
        conditional_mixed_moment(two_of_three, dists, OmegaPair(frozenset()),
                                 budget=10)
    with pytest.raises(BudgetExceededError, match="pair-moment tensor"):
        resampling_variance(two_of_three, dists, 4, layout=layout, budget=10)


MC_ENTRIES = {
    "resampling_variance": lambda spec, dists, draws: resampling_variance(
        spec, dists, 4, layout=(4, 4, 4), mc_draws=draws),
    "conditional_mixed_moment": lambda spec, dists, draws:
        conditional_mixed_moment(spec, dists, OmegaPair(frozenset({1})),
                                 mc_draws=draws),
    "hierarchical_variance": lambda spec, dists, draws: hierarchical_variance(
        spec, dists, {1: 3, 2: 3, 3: 3, 4: 3, 5: 4}, mc_draws=draws),
}


@pytest.mark.parametrize("entry", list(MC_ENTRIES))
def test_generator_mc_draws_are_checked(two_of_three, entry):
    """mc_draws = -5 gave variance 0.0 with SE 0.0 as if exact, 0 divided
    by zero and 2.5 raised numpy's TypeError; the SE needs two draws."""
    run = MC_ENTRIES[entry]
    dists = [exponential(1.0)] * 3
    for bad, exc in [(-5, ValueError), (0, ValueError), (1, ValueError),
                     (2.5, TypeError), (True, TypeError),
                     (np.float64(100.0), TypeError)]:
        with pytest.raises(exc, match="mc_draws"):
            run(two_of_three, dists, bad)
    assert "generator-mc" in repr(run(two_of_three, dists, np.int64(2)))


def test_variance_rows_report_the_moment_route(two_of_three, small_samples):
    """The route of every moment shows in every row of resampling_variance
    and hierarchical_variance and in to_dict(): Monte Carlo when a law has
    no finite support."""
    finite = [empirical([0.5, 1.5, 2.0])] * 3
    continuous = [exponential(1.0)] * 3
    layout = BlockLayout.singleton((3, 3, 3))
    sizes = {1: 3, 2: 3, 3: 3, 4: 3, 5: 4}

    def methods(rep):
        assert [p["method"] for p in rep.to_dict()["pairs"]] == \
            [row.method for row in rep.rows]
        return {row.method for row in rep.rows}

    mc = dict(seed=3, mc_draws=20_000)
    assert methods(resampling_variance(two_of_three, continuous, 4,
                                       layout=layout, **mc)) == {"generator-mc"}
    assert methods(hierarchical_variance(two_of_three, continuous, sizes,
                                         **mc)) == {"generator-mc"}
    assert methods(resampling_variance(two_of_three, finite, 4,
                                       layout=layout)) == {"generator-exact"}
    assert methods(hierarchical_variance(two_of_three, finite,
                                         sizes)) == {"generator-exact"}
    assert methods(resampling_variance(two_of_three, small_samples,
                                       4)) == {"empirical-exact"}


@pytest.mark.parametrize("family", ["alpha", "beta"])
def test_shared_finite_supports_stay_exact_within_the_default_budget(
        monkeypatch, family):
    """Eight values on each of two shared supports: every row comes from
    the pair-moment tensor, where one value grid per matching (up to 8^8
    cells) went over the default budget and mixed in Monte Carlo rows."""
    monkeypatch.delenv("RESAMPLEKIT_BUDGET", raising=False)
    spec = parse_system("min(max(x1, x2), sum(x3, x4))")
    a = empirical(np.linspace(0.25, 2.0, 8))
    b = empirical(np.linspace(0.1, 1.5, 8))
    layout = BlockLayout(((1, 2), (3, 4)), (10, 10))
    rep = resampling_variance(spec, [a, a, b, b], 5, layout=layout,
                              family=family)
    assert {row.method for row in rep.rows} == {"generator-exact"}
    assert rep.variance_se == 0.0 and rep.variance > 0.0


def test_generator_grid_rejects_a_malformed_budget_setting(two_of_three,
                                                           monkeypatch):
    """A bad RESAMPLEKIT_BUDGET is an error, as on the empirical route,
    not a reason to switch to Monte Carlo."""
    dists = [empirical([0.5, 1.5, 2.0])] * 3
    layout = BlockLayout.singleton((3, 3, 3))
    monkeypatch.setenv("RESAMPLEKIT_BUDGET", "abc")
    with pytest.raises(ValueError, match="RESAMPLEKIT_BUDGET"):
        conditional_mixed_moment(two_of_three, dists, OmegaPair({1}))
    with pytest.raises(ValueError, match="RESAMPLEKIT_BUDGET"):
        resampling_variance(two_of_three, dists, 4, layout=layout)


def test_size_one_sample_drops_impossible_omega_patterns():
    """A sample of size 1 is shared by every pair of realizations."""
    s = SampleSet.from_samples([("a", [1.0]), ("b", [0.5, 2.0])])
    table = enumerate_pairs(s.layout)
    assert [p for p, _ in table] == [OmegaPair({1}), OmegaPair({1, 2})]
    rep = resampling_variance(parse_system("sum(x1, x2)"), s, 3)
    assert rep.variance == pytest.approx(0.5625 / 3, abs=1e-15)


def test_mixed_moment_double_enumeration_oracle(two_of_three, small_samples):
    """mu11(omega) equals the brute-force average over constrained pairs."""
    vectors = list(itertools.product(range(3), repeat=3))
    vals = {v: evaluate(two_of_three, small_samples.values_matrix(np.array(v)[None, :])[0])
            for v in vectors}
    for omega in (frozenset(), frozenset({3}), frozenset({1, 2})):
        acc, cnt = 0.0, 0
        for v, w in itertools.product(vectors, repeat=2):
            pat = frozenset(i + 1 for i in range(3) if v[i] == w[i])
            if pat == omega:
                acc += vals[v] * vals[w]
                cnt += 1
        mm = conditional_mixed_moment(two_of_three, small_samples, OmegaPair(omega))
        assert mm.value == pytest.approx(acc / cnt, abs=1e-12)


def test_mixed_moment_recombines_to_mu_squared(two_of_three, small_samples):
    """Sum of P(omega) mu11(omega) over all pairs is mu^2 (independent draws)."""
    mom = exhaustive_moments(two_of_three, small_samples)
    total = 0.0
    for pat, p in enumerate_pairs(small_samples.layout):
        mm = conditional_mixed_moment(two_of_three, small_samples, pat)
        total += p * mm.value
    assert total == pytest.approx(mom.mu**2, abs=1e-12)


def test_mixed_moment_alpha_counting_oracle(two_of_three):
    """Alpha-conditioned moment vs direct counting on a shared-sample layout."""
    s = SampleSet.from_samples(
        [("p", [2.0, 0.5, 1.5]), ("c", [1.2, 0.1])],
        blocks={1: "p", 2: "p", 3: "c"})
    lay = s.layout
    vectors = list(admissible_vectors(lay))
    vals = {v: evaluate(two_of_three, s.values_matrix(np.array(v)[None, :])[0])
            for v in vectors}
    targets: dict[tuple, list] = {}
    for v, w in itertools.product(vectors, repeat=2):
        a = (len({v[0], v[1]} & {w[0], w[1]}), int(v[2] == w[2]))
        targets.setdefault(a, []).append(vals[v] * vals[w])
    for alpha, prods in targets.items():
        mm = conditional_mixed_moment(two_of_three, s, AlphaPair(alpha))
        assert mm.value == pytest.approx(float(np.mean(prods)), abs=1e-12)


def test_block_variance_vs_seeded_runs(two_of_three):
    """Alpha-family variance matches the spread of seeded runs, blocks included."""
    s = SampleSet.from_samples(
        [("p", [2.0, 0.5, 1.5]), ("c", [1.2, 0.1])],
        blocks={1: "p", 2: "p", 3: "c"})
    r = 4
    rep = resampling_variance(two_of_three, s, r=r)
    assert rep.mode == "empirical"
    assert sum(row.probability for row in rep.rows) == pytest.approx(1.0, abs=1e-12)
    estimates = np.array([
        estimate_theta(two_of_three, s, r=r, seed=s_).estimate
        for s_ in range(8000)])
    emp = float(np.var(estimates, ddof=1))
    assert abs(emp - rep.variance) < 4 * var_se(estimates)


@pytest.mark.parametrize("text, blocks, n", [
    ("min(max(x1, x2), max(x3, x4))", {1: "a", 2: "a", 3: "b", 4: "b"}, 10),
    ("min(max(x1, x2), max(x3, x4))", {1: "a", 2: "a", 3: "b", 4: "b"}, 12),
    ("kofn(2; x1, x2, x3)", {1: "a", 2: "a", 3: "a"}, 12),
], ids=["two-blocks-n10", "two-blocks-n12", "one-sample-kofn-n12"])
def test_shared_layouts_run_within_the_default_budget(monkeypatch, text,
                                                      blocks, n):
    """Two two-argument blocks at n = 10 and 12 (over the default budget
    for one pattern-matched grid per pattern) and a 2-of-3 on one sample
    at n = 12 (about a second that way) run on the pair-moment tensor; the
    alpha and beta tables give one variance, and sum_p p mu11(p) is mu^2
    because the two realizations are independent."""
    monkeypatch.delenv("RESAMPLEKIT_BUDGET", raising=False)
    rng = np.random.default_rng(n)
    s = SampleSet.from_samples(
        [(name, rng.exponential(1.0, n)) for name in sorted(set(blocks.values()))],
        blocks=blocks)
    spec = parse_system(text)
    alpha = resampling_variance(spec, s, 10, family="alpha")
    beta = resampling_variance(spec, s, 10, family="beta")
    assert alpha.variance == pytest.approx(beta.variance, rel=0, abs=1e-12)
    for rep in (alpha, beta):
        assert rep.mu11 == pytest.approx(rep.mu ** 2, rel=0, abs=1e-12)


def test_singleton_variance_evaluates_the_value_grid_once(monkeypatch):
    """mu, mu2 and every omega pair sum come from one 5x5x5 value grid."""
    import resamplekit.resampling as resampling_module
    from resamplekit import hierarchical_variance

    spec = parse_system("min(x1, max(x2, x3))")
    rng = np.random.default_rng(12)
    s = SampleSet.from_samples(
        [(f"x{i}", rng.exponential(1.0, 5)) for i in (1, 2, 3)])
    sizes = {i: 5 for i in spec.node_ids}
    sizes[spec.root_id] = 4
    ex = exhaustive_moments(spec, s)
    want = (resampling_variance(spec, s, r=10).to_dict(),
            hierarchical_variance(spec, s, sizes).to_dict())
    original = resampling_module.evaluate_grid
    calls = []

    def counted(spec_, leaves, dims):
        calls.append(math.prod(dims))
        return original(spec_, leaves, dims)

    monkeypatch.setattr(resampling_module, "evaluate_grid", counted)
    rep = resampling_variance(spec, s, r=10)
    assert calls == [125]
    calls.clear()
    hier = hierarchical_variance(spec, s, sizes)
    assert calls == [125]
    assert (rep.mu, rep.mu2) == (hier.mu, hier.mu2) == (ex.mu, ex.mu2)
    assert (rep.to_dict(), hier.to_dict()) == want


# Bytes of the singleton exact variances: float.hex of the variance, mu11
# and every row moment of resampling_variance on the (5,5,5) 2-of-3 and
# (3,3,3,3) SP4 data below, of hierarchical_variance on the SP4 data with
# every internal node of size 3, and the sha256 of the estimate command's
# stdout on the 2-of-3 data.
PIN_2OF3 = [[4.643, 0.839, 0.086, 0.784, 2.739],
            [1.69, 1.315, 1.013, 0.207, 1.705],
            [0.177, 0.149, 0.094, 2.028, 1.106]]
PIN_SP4 = [[1.243, 0.667, 1.087], [1.658, 0.479, 0.542],
           [0.123, 0.427, 0.441], [1.084, 0.618, 0.049]]
PINNED_VARIANCE_HEX = {
    "2of3": ("0x1.1c9dfd0245ec0p-5", "0x1.0588dcca9793fp+0", (
        "0x1.e63fa2be6c9ddp-1", "0x1.17d46b2f568d5p+0", "0x1.0ad45317c3dadp+0",
        "0x1.2f901bca13929p+0", "0x1.126562ca1378dp+0", "0x1.37938b84fb496p+0",
        "0x1.27fd233d02253p+0", "0x1.5e7a3bdb4d6e2p+0")),
    "sp4": ("0x1.284b1e802b0a0p-7", "0x1.ac1120a724f19p-2", (
        "0x1.869300d953bb7p-2", "0x1.869300d953bbcp-2", "0x1.869300d953bbap-2",
        "0x1.869300d953bbdp-2", "0x1.869300d953bc2p-2", "0x1.869300d953bbdp-2",
        "0x1.869300d953bbdp-2", "0x1.869300d953bbcp-2", "0x1.f072871df584dp-2",
        "0x1.f70ad29220882p-2", "0x1.f072871df5849p-2", "0x1.fda31e064b8b9p-2",
        "0x1.fb780346dc5dap-2", "0x1.0108275d83b07p-1", "0x1.fb780346dc5d5p-2",
        "0x1.04544d1799323p-1")),
    "hvar-sp4": ("0x1.9369b9c847848p-5", "0x1.c96936b8aba11p-2", (
        "0x1.869300d953bb7p-2", "0x1.869300d953bbcp-2", "0x1.869300d953bbap-2",
        "0x1.869300d953bc2p-2", "0x1.f072871df584dp-2", "0x1.869300d953bbdp-2",
        "0x1.869300d953bbdp-2", "0x1.f70ad29220882p-2", "0x1.869300d953bbdp-2",
        "0x1.f072871df5849p-2", "0x1.fb780346dc5dap-2", "0x1.869300d953bbcp-2",
        "0x1.fda31e064b8b9p-2", "0x1.0108275d83b07p-1", "0x1.fb780346dc5d5p-2",
        "0x1.04544d1799323p-1")),
}
PINNED_ESTIMATE_SHA256 = \
    "d89cd143068158cf6a07cd0b11cc648505a04244df1b21700dd11fa85006e99b"

# Bytes of exhaustive_moments on threshold systems: float.hex of mu and
# mu2 and the vector count, for TREE6 at t = 1 on data with values (and
# sums of x5 and x6) equal to the level, for SP4 under a "<" level that is
# one of the data values, and for a 2-of-3 whose x1 and x2 share a sample.
PIN_TREE6 = [[1.0, 0.4, 2.2, 1.3], [1.0, 1.7, 0.3], [0.9, 1.0, 1.6, 0.2, 1.1],
             [1.0, 2.5, 0.7], [0.5, 1.0, 0.25, 0.125], [0.5, 0.0, 0.75, 0.9]]
PINNED_MOMENTS_HEX = {
    "tree6-ties": ("0x1.6666666666666p-3", "0x1.6666666666666p-3", 2880),
    "sp4-below": ("0x1.5555555555555p-1", "0x1.5555555555555p-1", 81),
    "2of3-shared": ("0x1.d70a3d70a3d71p-2", "0x1.d70a3d70a3d71p-2", 100),
}


def _report_hex(rep):
    return (rep.variance.hex(), rep.mu11.hex(),
            tuple(row.moment.hex() for row in rep.rows))


def test_singleton_exact_variances_keep_their_bytes(tmp_path, capsys):
    from resamplekit.cli import main
    from resamplekit.wave import node_sizes

    def samples(cols):
        return SampleSet.from_samples(
            [(f"x{i}", c) for i, c in enumerate(cols, start=1)])

    two = parse_system("kofn(2; x1, x2, x3)")
    sp4 = parse_system("min(max(x1, x2), max(x3, x4))")
    internal = {nid: 3 for nid in sp4.node_ids if nid > sp4.m}
    got = {
        "2of3": _report_hex(resampling_variance(two, samples(PIN_2OF3), 10)),
        "sp4": _report_hex(resampling_variance(sp4, samples(PIN_SP4), 10)),
        "hvar-sp4": _report_hex(hierarchical_variance(
            sp4, samples(PIN_SP4),
            node_sizes(sp4, samples(PIN_SP4), internal))),
    }
    assert got == PINNED_VARIANCE_HEX
    spec = tmp_path / "twoof3.txt"
    spec.write_text("kofn(2; x1, x2, x3)\n")
    data = tmp_path / "samples.csv"
    data.write_text("x1,x2,x3\n" + "".join(
        ",".join(str(c[i]) for c in PIN_2OF3) + "\n" for i in range(5)))
    assert main(["estimate", "--spec", str(spec), "--samples", str(data),
                 "--r", "100", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_ESTIMATE_SHA256


def test_threshold_exhaustive_moments_keep_their_bytes():
    def moments_hex(text, t, samples):
        ex = exhaustive_moments(parse_system(text, params={"t": t}), samples)
        return ex.mu.hex(), ex.mu2.hex(), ex.count

    def samples(cols):
        return SampleSet.from_samples(
            [(f"x{i}", c) for i, c in enumerate(cols, start=1)])

    shared = SampleSet.from_samples([("a", PIN_2OF3[0]), ("b", PIN_2OF3[1])],
                                    blocks={1: "a", 2: "a", 3: "b"})
    assert {
        "tree6-ties": moments_hex(
            "ind(min(max(x1, x2), max(x3, x4), sum(x5, x6)) > t)", 1.0,
            samples(PIN_TREE6)),
        "sp4-below": moments_hex("ind(min(max(x1, x2), max(x3, x4)) < t)",
                                 0.618, samples(PIN_SP4)),
        "2of3-shared": moments_hex("ind(kofn(2; x1, x2, x3) > t)", 1.013,
                                   shared),
    } == PINNED_MOMENTS_HEX


@pytest.mark.parametrize("bad, error", [
    (2.5, TypeError), (True, TypeError), (np.float64(4.0), TypeError),
    (0, ValueError)])
def test_resampling_variance_rejects_a_non_integer_r(two_of_three,
                                                      small_samples, bad,
                                                      error):
    with pytest.raises(error, match=r"\br\b"):
        resampling_variance(two_of_three, small_samples, bad)


SP4_IND = "ind(min(max(x1, x2), max(x3, x4)) > t)"


@pytest.mark.parametrize("n", [30, 1000])
def test_class_tensor_moments_are_exact(n):
    """SP4 and a 2-of-3 on data of quarters, with ties at the level: every
    omega moment equals the class-count oracle's fraction, correctly
    rounded.  At n = 1000 the pair counts pass 2^63, so the tensor holds
    Python ints."""
    rng = np.random.default_rng(n)
    for text in (SP4_IND, "ind(kofn(2; x1, x2, x3) < t)"):
        spec = parse_system(text, params={"t": 1.0})
        cols = np.round(rng.exponential(1.0, (spec.m, n)) * 4) / 4
        s = SampleSet.from_samples(
            [(f"x{i}", c) for i, c in enumerate(cols, start=1)])
        rep = resampling_variance(spec, s, 10)
        assert len(rep.rows) == 2 ** spec.m
        assert {row.pair: row.moment for row in rep.rows} == {
            pattern: float(moment) for pattern, moment
            in class_moment_oracle(spec, s, 1.0).items()}


def test_sp4_variances_at_200_per_sample_match_seeded_runs():
    """SP4 at 200 values per sample (1.6e9 value cells, over the default
    budget for the position tensor): the flat variance against 4,000
    seeded estimates, and the cascade's, whose pattern moments do not
    cancel to mu^2, against 4,000 seeded cascades, each within 4 SE."""
    from resamplekit import wave_estimate
    from resamplekit.wave import node_sizes

    cols = np.random.default_rng(200).exponential(1.0, (4, 200))
    spec = parse_system(SP4_IND, params={"t": float(np.median(cols))})
    s = SampleSet.from_samples(
        [(f"x{i}", c) for i, c in enumerate(cols, start=1)])
    rep = resampling_variance(spec, s, 10)
    estimates = np.array([estimate_theta(spec, s, 10, seed=k).estimate
                          for k in range(4000)])
    assert abs(float(np.var(estimates, ddof=1)) - rep.variance) \
        < 4 * var_se(estimates)
    sizes = node_sizes(spec, s, {nid: 12 for nid in spec.node_ids
                                 if nid > spec.m})
    rep = hierarchical_variance(spec, s, sizes)
    assert rep.mu11 != pytest.approx(rep.mu ** 2, abs=1e-4)
    estimates = np.array([wave_estimate(spec, s, sizes, seed=k).estimate
                          for k in range(4000)])
    assert abs(float(np.var(estimates, ddof=1)) - rep.variance) \
        < 4 * var_se(estimates)

