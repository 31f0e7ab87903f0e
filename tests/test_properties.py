"""Properties of the exact routes on generated layouts and systems.

Each property is checked on inputs that Hypothesis generates from a fixed
derandomized seed, so the suite stays deterministic; the oracles live in
``helpers.py``.
"""

import contextlib
import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

import resamplekit.coverage as coverage_module
import resamplekit.pairs as pairs_module
import resamplekit.partial as partial_module
import resamplekit.resampling as resampling_module
import resamplekit.systems as systems_module
from resamplekit import (AlphaPair, BlockLayout, BudgetExceededError,
                         OmegaPair, SampleSet, _streams,
                         conditional_mixed_moment, empirical, enumerate_pairs,
                         estimate_theta, exhaustive_moments, exponential,
                         normal, parse_system, resampling_variance,
                         triangular, uniform)
from resamplekit.coverage import (OrderFunctional, WVector,
                                  _NumericOrderingLaw, _enumerate_w,
                                  coverage_conditional, coverage_R,
                                  protocol_table, q_given_ordering,
                                  resampling_interval, rho)
from resamplekit.pairs import _class_tensor_counts, _matching_of
from resamplekit.partial import (estimate_inner_mc, estimate_known_g,
                                 wave_estimate_vector_samples)
from resamplekit.resampling import (EstimateResult, chunk_moments,
                                   class_counts, draw_index_batch,
                                   draw_values, grid_values)
from resamplekit.systems import evaluate_batch, leaf_dependencies, render
from resamplekit.wave import wave_estimate

from helpers import (CHAIN_OPS, block_of_arg, coverage_oracle,
                     draw_values_oracle, enumerate_w_oracle,
                     estimate_theta_oracle, evaluate_batch_oracle,
                     first_untabulated, fisher_yates_oracle,
                     grid_values_oracle, index_vector_chunks, indicator,
                     inner_mc_oracle, known_g_oracle, lattice_hits_oracle,
                     lattice_phi_oracle, leaf_deps_oracle, numeric_pw_oracle,
                     pair_moment_oracle, product_grid, q_oracle,
                     race_probability_oracle,
                     resampling_interval_oracle, shared_pair_moment_oracle,
                     support_matching_oracle, support_moments_oracle,
                     subtree, systems, var_se, vector_wave_oracle,
                     wave_count_oracle, wave_oracle)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30,
                    database=None)


@st.composite
def layouts(draw, max_m=4, max_size=4, max_vectors=300):
    """Argument -> sample bindings with shared blocks, as SampleSets."""
    m = draw(st.integers(1, max_m))
    binding = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    used = sorted(set(binding))
    names = {s: f"s{k}" for k, s in enumerate(used)}
    samples = []
    for s in used:
        need = binding.count(s)
        size = draw(st.integers(need, max(need, max_size)))
        samples.append((names[s], np.arange(size, dtype=float)))
    blocks = {arg: names[s] for arg, s in enumerate(binding, start=1)}
    out = SampleSet.from_samples(samples, blocks=blocks)
    if out.admissible_count() > max_vectors:
        # keep the oracle small: shrink every sample to its draw count
        samples = [(n, v[:binding.count(s)]) for (n, v), s in zip(samples, used)]
        out = SampleSet.from_samples(samples, blocks=blocks)
    return out


@st.composite
def singleton_problems(draw, max_m=3, max_size=4):
    """Small singleton SampleSets with positive data in [0.5, 2] plus a
    system over them.  The bounded positive range keeps every pair sum
    positive and the Moebius differences well conditioned."""
    m = draw(st.integers(1, max_m))
    sizes = draw(st.lists(st.integers(1, max_size), min_size=m, max_size=m))
    value = st.floats(0.5, 2.0, allow_nan=False).map(lambda x: round(x, 2))
    cols = [draw(st.lists(value, min_size=n, max_size=n)) for n in sizes]
    samples = SampleSet.from_samples(
        [(f"x{i + 1}", c) for i, c in enumerate(cols)])
    text, indicator = draw(systems(m))
    return parse_system(text), samples, indicator


@PROPERTY
@given(samples=layouts(), chunk=st.integers(1, 40))
def test_grid_rows_match_tuple_enumeration(samples, chunk):
    want = [tuple(v) for v in samples.enumerate_index_vectors()]
    got = np.concatenate(list(index_vector_chunks(samples)))
    assert [tuple(int(x) for x in row) for row in got] == want
    # permutation tables joined in small chunks give the same rows
    tables = [np.array(list(itertools.permutations(range(b.size),
                                                   b.draw_count)))
              for b in samples.blocks]
    slots = [[a - 1 for a in b.args] for b in samples.blocks]
    parts = list(product_grid(tables, slots, samples.m, chunk))
    assert all(len(p) <= chunk for p in parts)
    assert [tuple(int(x) for x in row)
            for row in np.concatenate(parts)] == want


@PROPERTY
@given(problem=singleton_problems())
def test_moebius_moments_match_pair_enumeration(problem):
    spec, samples, indicator = problem
    oracle = pair_moment_oracle(spec, samples, "omega")
    for pattern, _ in enumerate_pairs(samples.layout):
        if pattern not in oracle:
            with pytest.raises(ValueError, match="probability 0"):
                conditional_mixed_moment(spec, samples, pattern)
            continue
        want = oracle[pattern][0]
        got = conditional_mixed_moment(spec, samples, pattern).value
        if indicator:
            assert got == pytest.approx(want, rel=0, abs=1e-12)
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0)


@PROPERTY
@given(samples=layouts(max_vectors=60), data=st.data())
def test_shared_block_moments_match_pair_enumeration(samples, data):
    text, _ = data.draw(systems(samples.m))
    spec = parse_system(text)
    oracle = pair_moment_oracle(spec, samples, "alpha")
    for pattern, p in enumerate_pairs(samples.layout, family="alpha"):
        if p == 0.0:
            continue
        got = conditional_mixed_moment(spec, samples, pattern).value
        assert got == pytest.approx(oracle[pattern][0], rel=1e-12, abs=1e-12)


@PROPERTY
@given(samples=layouts(max_m=5, max_size=6, max_vectors=10**6),
       family=st.sampled_from(["auto", "alpha", "beta"]))
def test_pattern_probabilities_sum_to_one(samples, family):
    if family == "beta" and samples.m > 4:
        family = "alpha"
    table = enumerate_pairs(samples.layout, family=family)
    assert all(p >= 0.0 for _, p in table)
    assert math.fsum(p for _, p in table) == pytest.approx(1.0, abs=1e-12)


@PROPERTY
@given(samples=layouts(max_vectors=100), r=st.integers(1, 50),
       data=st.data())
def test_exact_variance_is_not_negative(samples, r, data):
    values = data.draw(st.lists(st.floats(0.5, 2.0), min_size=6, max_size=6))
    samples = SampleSet.from_samples(
        [(name, np.resize(values, len(col)))
         for name, col in zip(samples.names, samples.columns)],
        blocks={a: samples.names[s]
                for a, s in enumerate(samples.arg_to_sample, start=1)})
    text, _ = data.draw(systems(samples.m))
    rep = resampling_variance(parse_system(text), samples, r)
    assert rep.variance >= -1e-12


def test_alpha_pattern_on_singleton_layout_reads_the_omega_table():
    samples = SampleSet.from_samples([("a", [0.5, 1.5]), ("b", [2.0, 0.1])])
    spec = parse_system("sum(x1, x2)")
    for counts in ((0, 0), (1, 0), (0, 1), (1, 1)):
        omega = OmegaPair(i + 1 for i, c in enumerate(counts) if c)
        assert conditional_mixed_moment(spec, samples, AlphaPair(counts)) \
            == conditional_mixed_moment(spec, samples, omega)
    with pytest.raises(ValueError, match="probability 0"):
        conditional_mixed_moment(spec, samples, AlphaPair((2, 0)))


# -- the grid layer against one index row per cell ------------------------

GRID_VALUES = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)
# None keeps GRID_CHUNK; the small chunks cut the grids at several
# boundaries, most of them inside a slab
CHUNKS = (None, 1, 2, 3, 5, 7, 16)


@st.composite
def grid_problems(draw, max_vectors=300):
    """A generated layout with real-valued data and a system over it."""
    samples = draw(layouts(max_vectors=max_vectors))
    cols = tuple(draw(st.lists(GRID_VALUES, min_size=len(c), max_size=len(c)))
                 for c in samples.columns)
    samples = SampleSet(samples.names, cols, samples.arg_to_sample)
    text, _ = draw(systems(samples.m))
    return parse_system(text), samples


def small_chunk(chunk):
    """Patch the grid evaluator's chunk size (None: leave it)."""
    if chunk is None:
        return contextlib.nullcontext()
    return mock.patch.object(systems_module, "GRID_CHUNK", chunk)


def oracle_chunk(chunk):
    return systems_module.GRID_CHUNK if chunk is None else chunk


@PROPERTY
@given(problem=grid_problems())
def test_grid_values_equal_index_rows_byte_for_byte(problem):
    spec, samples = problem
    for chunk in CHUNKS:
        with small_chunk(chunk):
            got = list(grid_values(spec, samples))
            ex = exhaustive_moments(spec, samples)
            kept = estimate_theta(spec, samples, None, keep_values=True).values
        want = list(grid_values_oracle(spec, samples, oracle_chunk(chunk)))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert kept.tobytes() == np.concatenate(want).tobytes()
        assert ex == chunk_moments(want)


@PROPERTY
@given(problem=grid_problems(max_vectors=60),
       family=st.sampled_from(["alpha", "beta"]))
def test_shared_block_pair_grid_equals_index_rows(problem, family):
    """The tensor route sums in another order than the per-pattern index
    rows, so the moments agree to 1e-12, not to the bit."""
    spec, samples = problem
    assume(not samples.singleton_blocks)
    for pattern, p in enumerate_pairs(samples.layout, family=family):
        if p == 0.0:
            continue
        for chunk in CHUNKS:
            with small_chunk(chunk):
                got = conditional_mixed_moment(spec, samples, pattern)
            assert got.value == pytest.approx(shared_pair_moment_oracle(
                spec, samples, pattern, oracle_chunk(chunk)), rel=0, abs=1e-12)


# data on a grid of quarters, which holds every generated level, so that
# values and sums meet the levels
QUARTERS = st.sampled_from([0.25 * k for k in range(12)])


@st.composite
def threshold_problems(draw):
    """Data on quarters, on a generated layout (one time in four) or on one
    sample per argument, and a system with an ``ind`` root: a generated
    system, wrapped in one if its root is not.  A singleton layout has at
    most 150 vectors, in sizes for which a lattice over data leaves has
    fewer cells than the grid.  Half of the systems have only order
    operators inside (and the ``ind`` nodes that the strategy puts around a
    subtree), so that their lattices often have only data leaves as
    boundary nodes."""
    if draw(st.integers(0, 3)):
        m = draw(st.sampled_from([3, 2, 4]))
        low, high = {2: (4, 8), 3: (3, 5), 4: (3, 3)}[m]
        sizes = draw(st.lists(st.integers(low, high), min_size=m, max_size=m))
        samples = SampleSet.from_samples(
            [(f"x{i}", np.zeros(n)) for i, n in enumerate(sizes, start=1)])
    else:
        samples = draw(layouts(max_vectors=150))
    cols = tuple(draw(st.lists(QUARTERS, min_size=len(c), max_size=len(c)))
                 for c in samples.columns)
    samples = SampleSet(samples.names, cols, samples.arg_to_sample)
    ops = draw(st.sampled_from([("min", "max", "sum", "kofn", "cmp"),
                                ("min", "max", "kofn")]))
    text, _ = draw(systems(samples.m, ops))
    if not text.startswith("ind("):
        text = draw(indicator(text))
    return parse_system(text), samples


def refuse_grids(module, refuse: bool):
    """Make ``module.grid_values`` raise, when ``refuse`` is set."""
    def refused(*args, **kwargs):
        raise AssertionError("the value grid was evaluated")

    return (mock.patch.object(module, "grid_values", refused) if refuse
            else contextlib.nullcontext())


@settings(PROPERTY, max_examples=100)
@given(problem=threshold_problems())
def test_class_lattice_moments_equal_the_oracles(problem):
    """Where the class lattice is taken (its cells no more than the
    grid's), mu, mu2 and every omega moment come without the value grid
    and equal the index-row oracles bit for bit."""
    spec, samples = problem
    want = chunk_moments(grid_values_oracle(spec, samples))
    lattice = class_counts(spec, samples, None) is not None
    with refuse_grids(resampling_module, lattice):
        assert exhaustive_moments(spec, samples) == want
    if not samples.singleton_blocks:
        return
    tensor = _class_tensor_counts(spec, samples, None) is not None
    with refuse_grids(pairs_module, tensor):
        rep = resampling_variance(spec, samples, 3)
    assert (rep.mu, rep.mu2) == (want.mu, want.mu2)
    oracle = pair_moment_oracle(spec, samples, "omega")
    assert {row.pair: row.moment for row in rep.rows} == {
        pattern: moment for pattern, (moment, _) in oracle.items()}


@settings(PROPERTY, max_examples=100)
@given(data=st.data())
def test_class_lattice_walk_equals_the_lattice_oracles(data):
    """On generated threshold systems, inner ``ind`` and ``cmp`` nodes and
    ``<`` and ``>`` levels among them, phi is the class rules' lattice and
    hits(counts) the cell-by-cell lattice sum, on counts up to 2^70.  Now
    and then a min, max or kofn of up to four children takes the system
    and more leaves, so that wide nodes meet the walk."""
    m = data.draw(st.integers(1, 6))
    text, _ = data.draw(systems(m))
    extra = data.draw(st.integers(0, 3))
    if extra:
        kids = ", ".join([text] + [f"x{m + i}" for i in range(1, extra + 1)])
        op = data.draw(st.sampled_from(["min(", "max(", "kofn("]))
        if op == "kofn(":
            op += f"{data.draw(st.integers(1, extra + 1))}; "
        text = f"{op}{kids})"
    if not text.startswith("ind("):
        text = data.draw(indicator(text))
    spec = parse_system(text)
    lattice = spec.class_lattice
    assume(lattice is not None)
    phi = lattice_phi_oracle(spec)
    assert lattice.phi.dtype == phi.dtype
    assert lattice.phi.tolist() == phi.tolist()
    counts = data.draw(st.lists(
        st.tuples(st.integers(0, 2 ** 70), st.integers(0, 2 ** 70)),
        min_size=len(lattice.boundary), max_size=len(lattice.boundary)))
    assert lattice.hits(counts) == lattice_hits_oracle(phi, counts)


@PROPERTY
@given(samples=layouts(max_m=3, max_size=3),
       family=st.sampled_from(["alpha", "beta"]), data=st.data())
def test_finite_support_grids_equal_value_rows(samples, family, data):
    """mu and mu2 come from the support grid in the oracle's order, so
    they keep its bits; the pair-moment tensor sums the mixed moments in
    another order than the per-matching value rows, so they agree to
    1e-12, not to the bit."""
    lay = samples.layout
    support = st.lists(GRID_VALUES, min_size=1, max_size=3)
    per_block = [empirical(data.draw(support)) for _ in lay.block_args]
    dists = [per_block[block_of_arg(lay, a)] for a in range(1, lay.m + 1)]
    text, _ = data.draw(systems(lay.m))
    spec = parse_system(text)
    for chunk in CHUNKS:
        with small_chunk(chunk):
            rep = resampling_variance(spec, dists, 3, layout=lay,
                                      family=family)
        size = oracle_chunk(chunk)
        assert (rep.mu, rep.mu2) == support_moments_oracle(spec, dists, size)
        for row in rep.rows:
            assert row.method == "generator-exact"
            matchings = _matching_of(row.pair, lay)
            assert row.moment == pytest.approx(sum(
                support_matching_oracle(spec, dists, matching, size)
                for matching in matchings) / len(matchings), rel=0, abs=1e-12)


def test_over_budget_grids_raise_before_building_anything(monkeypatch):
    """Budgets are checked on the grid size alone: no draw table, leaf,
    grid evaluation or pair-moment tensor is made for a grid of 10^15
    cells."""
    def refuse(*args, **kwargs):
        raise AssertionError("grid work started before the budget check")

    for module, name in ((resampling_module, "_draw_table"),
                         (resampling_module, "evaluate_grid"),
                         (pairs_module, "grid_values"),
                         (pairs_module, "_draw_table"),
                         (pairs_module, "evaluate_grid")):
        monkeypatch.setattr(module, name, refuse)
    big = np.linspace(0.0, 1.0, 100_000)
    singleton = SampleSet.from_samples([("a", big), ("b", big), ("c", big)])
    shared = SampleSet.from_samples([("a", big[:10_000]), ("b", big)],
                                    blocks={1: "a", 2: "a", 3: "b"})
    spec = parse_system("sum(x1, max(x2, x3))")
    for samples in (singleton, shared):
        with pytest.raises(BudgetExceededError):
            exhaustive_moments(spec, samples)
        with pytest.raises(BudgetExceededError):
            estimate_theta(spec, samples, None)
        with pytest.raises(BudgetExceededError):
            resampling_variance(spec, samples, 2)
    with pytest.raises(BudgetExceededError):
        conditional_mixed_moment(spec, shared, AlphaPair((1, 0)))
    dists = [empirical(big)] * 3
    with pytest.raises(BudgetExceededError):
        conditional_mixed_moment(spec, dists, OmegaPair(()))
    with pytest.raises(BudgetExceededError):
        resampling_variance(spec, dists, 2,
                            layout=BlockLayout.singleton((3, 3, 3)))


# -- compiled spec tables against recursion over the nodes ----------------

# Values with ties at the ind levels of ``systems``, so that the strict and
# non-strict comparisons and the k-of-n compare-exchange passes meet equal
# inputs.
CELLS = st.sampled_from([0.0, 0.75, 1.0, 1.5, 2.5]) | st.floats(
    -1e3, 1e3, allow_nan=False)
def table_rows(spec) -> list:
    """The spec's table with every node cut down to its type and its own
    fields; node ``==`` would compare each node's whole subtree again."""
    return [(nid, type(node).__name__,
             [(f.name, getattr(node, f.name))
              for f in dataclasses.fields(node)
              if f.name not in ("children", "child", "left", "right")],
             kids)
            for nid, node, kids in spec.table]


@PROPERTY
@given(m=st.integers(1, 6), rows=st.integers(1, 12), data=st.data())
def test_table_walk_equals_recursive_evaluation(m, rows, data):
    text, _ = data.draw(systems(m))
    spec = parse_system(text)
    X = np.array(data.draw(st.lists(CELLS, min_size=rows * m,
                                    max_size=rows * m))).reshape(rows, m)
    got, want = evaluate_batch(spec, X), evaluate_batch_oracle(spec, X)
    assert got.dtype == want.dtype and got.shape == want.shape == (rows,)
    assert got.tobytes() == want.tobytes()


@settings(PROPERTY, max_examples=20)
@given(m=st.integers(1, 4), depth=st.sampled_from([0, 1, 2, 5000])
       | st.integers(0, 5000), ops=st.lists(st.sampled_from(CHAIN_OPS),
                                           min_size=1, max_size=3),
       indicator=st.booleans(), data=st.data())
def test_render_parse_round_trip(m, depth, ops, indicator, data):
    """Random trees under a one-child chain of up to 5,000 operators."""
    body, _ = data.draw(systems(m))
    text = "".join(ops[i % len(ops)] for i in range(depth)) + body \
        + ")" * depth
    if indicator:
        text = f"ind({text} < 1.5)"
    spec = parse_system(text)
    again = parse_system(render(spec.root))
    assert render(again.root) == render(spec.root)
    assert table_rows(again) == table_rows(spec)
    # leaves keep their input index; operators count up from m + 1 in
    # post-order, so the root comes last
    size = len(parse_system(body).table) + depth + indicator
    assert sorted(nid for nid, _, _ in spec.table) == list(range(1, size + 1))
    assert [nid for nid, _, kids in spec.table if kids] \
        == list(range(m + 1, size + 1))


@PROPERTY
@given(m=st.integers(1, 6), depth=st.integers(0, 40), data=st.data())
def test_leaf_sets_equal_the_union_of_the_children(m, depth, data):
    body, _ = data.draw(systems(m))
    spec = parse_system("min(" * depth + body + ")" * depth)
    want = leaf_deps_oracle(spec)
    assert dict(spec.leaf_deps) == want
    assert len(spec.leaf_deps) == len(want)
    for nid, leaves in want.items():
        assert leaf_dependencies(spec, nid) == leaves


@PROPERTY
@given(m=st.integers(1, 4), data=st.data())
def test_node_equality_matches_rendered_text(m, data):
    a = parse_system(data.draw(systems(m))[0]).root
    b = parse_system(data.draw(systems(m))[0]).root
    same = render(a) == render(b)
    assert (a == b) == same == (repr(a) == repr(b))
    assert a == parse_system(render(a)).root
    if same:
        assert hash(a) == hash(b)


# -- coverage: array route against the per-W oracle -----------------------

ORDER_OPS = ("min", "max", "kofn")


def interleavings(sizes) -> int:
    return math.factorial(sum(sizes)) // math.prod(
        math.factorial(n) for n in sizes)


@st.composite
def order_subtree(draw, leaves):
    """A min/max/kofn expression over the given leaves whose inner nodes
    take two to four children."""
    if len(leaves) == 1:
        return f"x{leaves[0]}"
    width = draw(st.integers(2, min(4, len(leaves))))
    cuts = sorted(draw(st.lists(st.integers(1, len(leaves) - 1),
                                min_size=width - 1, max_size=width - 1,
                                unique=True)))
    kids = ", ".join(draw(order_subtree(leaves[a:b]))
                     for a, b in zip([0] + cuts, cuts + [len(leaves)]))
    op = draw(st.sampled_from(ORDER_OPS))
    if op == "kofn":
        return f"kofn({draw(st.integers(1, width))}; {kids})"
    return f"{op}({kids})"


@st.composite
def order_functionals(draw, m):
    """A comparison of two min/max/kofn subtrees over x1..xm."""
    leaves = draw(st.permutations(range(1, m + 1)))
    cut = draw(st.integers(1, m - 1))
    op = draw(st.sampled_from("<>"))
    text = (f"cmp({draw(order_subtree(leaves[:cut]))} {op} "
            f"{draw(order_subtree(leaves[cut:]))})")
    return OrderFunctional(parse_system(text))


@st.composite
def coverage_problems(draw, max_w=200, max_m=3, law=None):
    """Sizes with at most ``max_w`` interleavings (``max_w`` >= max_m!),
    an order functional and exponential or normal generators (``law``
    "race" or "numeric" fixes which), plus the interval settings."""
    m = draw(st.integers(2, max_m))
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    while interleavings(sizes) > max_w:
        sizes = tuple(n - 1 if n == max(sizes) else n for n in sizes)
    if draw(st.booleans()) if law is None else law == "race":
        rate = st.sampled_from([0.5, 1.0, 2.0, 3.0])
        gens = tuple(exponential(draw(rate)) for _ in range(m))
    else:
        gens = tuple(normal(draw(st.sampled_from([-1.0, 0.0, 0.5])),
                            draw(st.sampled_from([0.5, 1.0, 2.0])))
                     for _ in range(m))
    return {"func": draw(order_functionals(m)), "generators": gens,
            "sizes": sizes,
            "theta": draw(st.sampled_from([0.1, 0.25, 0.5, 0.8])),
            "gammas": (0.5, 0.8), "k": draw(st.sampled_from([5, 10])),
            "r": draw(st.sampled_from([4, 16]))}


@st.composite
def w_vectors(draw, sizes):
    labels = [i + 1 for i, n in enumerate(sizes) for _ in range(n)]
    return tuple(draw(st.permutations(labels)))


def small_sizes(sizes, max_w):
    """``sizes`` with the largest cut down until at most ``max_w``
    interleavings are left."""
    while interleavings(sizes) > max_w:
        sizes[sizes.index(max(sizes))] -= 1
    return tuple(sizes)


def laws_of(law, m):
    """Exponential (the race) or normal generators for m samples."""
    if law == "race":
        return [exponential(rate) for rate in (1.0, 2.0, 3.0, 0.5, 1.5)[:m]]
    return [normal(mu, 1.0) for mu in (0.0, -0.5, 1.0, 0.5)[:m]]


def table_of(func, gens, sizes):
    return protocol_table(func, gens, sizes, 0.25, (0.5, 0.8), 10, 16)


@PROPERTY
@given(sizes=st.lists(st.integers(1, 3), min_size=2, max_size=4),
       chunk=st.integers(1, 50), data=st.data())
def test_w_enumeration_matches_recursion(sizes, chunk, data):
    """The walk's W rows in pieces of at most ``chunk`` prefixes."""
    sizes = small_sizes(sizes, 2000)
    func = data.draw(order_functionals(len(sizes)))
    with mock.patch.object(coverage_module, "GRID_CHUNK", chunk):
        parts = list(_enumerate_w(func, laws_of("race", len(sizes)), sizes))
    assert all(len(w) <= chunk for w, _, _ in parts)
    w = np.concatenate([w for w, _, _ in parts])
    assert w.dtype == np.uint8
    assert [tuple(row) for row in w.tolist()] == \
        list(enumerate_w_oracle(sizes))


@pytest.mark.parametrize("law", ["race", "numeric"])
@PROPERTY
@given(sizes=st.lists(st.integers(1, 3), min_size=2, max_size=4),
       data=st.data())
def test_walk_split_at_every_level_keeps_every_byte(law, sizes, data):
    """``GRID_CHUNK`` of 1 cuts every level into single prefixes: each
    column of the table keeps its bytes and dtype."""
    sizes = small_sizes(sizes, 500 if law == "race" else 60)
    func = data.draw(order_functionals(len(sizes)))
    gens = laws_of(law, len(sizes))
    want = table_of(func, gens, sizes)
    with mock.patch.object(coverage_module, "GRID_CHUNK", 1):
        assert all(len(w) == 1 for w, _, _ in
                   _enumerate_w(func, gens, sizes))
        got = table_of(func, gens, sizes)
    for column in ("w", "probability", "q", "rho", "coverage"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), column


@settings(PROPERTY, max_examples=200)
@given(problem=coverage_problems(max_w=30_000, max_m=5), data=st.data())
def test_q_and_race_law_match_scalar_oracles(problem, data):
    """Rank counting against phi on every index combination, on nested
    min/max/kofn nodes of up to four children, either comparison and
    unequal sizes; the table's q against the array route on every row and
    its race P_W against the race oracle on the drawn rows."""
    func, sizes = problem["func"], problem["sizes"]
    ws = [data.draw(w_vectors(sizes)) for _ in range(4)]
    qs = q_given_ordering(func, np.array(ws))
    rates = [1.0, 2.0, 3.0, 0.5, 1.5][:len(sizes)]
    table = table_of(func, [exponential(x) for x in rates], sizes)
    assert table.q.tobytes() == q_given_ordering(func, table.w).tobytes()
    p_of = dict(zip(map(tuple, table.w.tolist()), table.probability.tolist()))
    for w, q in zip(ws, qs):
        assert q == q_given_ordering(func, WVector(w)) == q_oracle(
            func.spec, w)
        assert p_of[w] == race_probability_oracle(w, rates, sizes)


@PROPERTY
@given(sizes=st.lists(st.integers(1, 3), min_size=2, max_size=3),
       data=st.data())
def test_numeric_law_shares_prefixes_bit_for_bit(sizes, data):
    """The walk integrates each W prefix once for all its rows; every row
    against integration from scratch per row."""
    sizes = small_sizes(sizes, 120)
    gens = [normal(data.draw(st.sampled_from([-0.5, 0.0, 1.0])), 1.0)
            for _ in sizes]
    table = table_of(data.draw(order_functionals(len(sizes))), gens, sizes)
    law = _NumericOrderingLaw(gens, sizes)
    assert table.probability.tobytes() == \
        numeric_pw_oracle(law, table.w).tobytes()


@pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 2, 2)])
def test_numeric_law_equals_per_row_integration_on_every_w(sizes):
    gens = [normal(0.0, 1.0), normal(0.0, 1.0), normal(-0.5, 1.0)]
    func = OrderFunctional(parse_system("cmp(x3 < min(x1, x2))"))
    table = table_of(func, gens, sizes)
    assert len(table) == interleavings(sizes)
    law = _NumericOrderingLaw(gens, sizes)
    assert table.probability.tobytes() == \
        numeric_pw_oracle(law, table.w).tobytes()


@st.composite
def continuous_laws(draw):
    """A law of one of the four continuous families, at a location and a
    scale each drawn over several decades."""
    family = draw(st.sampled_from(
        ["exponential", "normal", "uniform", "triangular"]))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    loc = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(
        st.floats(-3.0, 4.0))
    if family == "exponential":
        return exponential(1.0 / scale)
    if family == "normal":
        return normal(loc, scale)
    if family == "uniform":
        return uniform(loc, loc + scale)
    return triangular(loc, loc + draw(st.floats(0.0, 1.0)) * scale,
                      loc + scale)


@settings(PROPERTY, max_examples=60)
@given(gens=st.lists(continuous_laws(), min_size=3, max_size=3),
       sizes=st.lists(st.integers(1, 3), min_size=3, max_size=3))
def test_numeric_law_total_probability_on_mixed_scales(gens, sizes):
    """Every law's own scale is resolved by its quantile edges, however far
    the others sit, so the mass is 1 up to the 1e-10 tails cut off."""
    func = OrderFunctional(parse_system("cmp(x3 < min(x1, x2))"))
    rep = coverage_R(func, gens, sizes, 0.25, 0.8, 10, 16)
    assert rep.total_probability == pytest.approx(1.0, abs=1e-8)


def assert_dp_matches_per_w_oracle(problem):
    """Exact coverage from the count-vector DP against the sum over every W
    row of ``coverage_oracle``: the same law and R_C, added in another
    order, so within 1e-13."""
    rep = coverage_R(problem["func"], problem["generators"], problem["sizes"],
                     problem["theta"], problem["gammas"], problem["k"],
                     problem["r"], mode="exact")
    coverage, total, table = coverage_oracle(
        problem["func"], problem["generators"], problem["sizes"],
        problem["theta"], problem["gammas"], problem["k"], problem["r"])
    assert rep.coverage == pytest.approx(coverage, abs=1e-13, rel=0)
    assert rep.total_probability == pytest.approx(total, abs=1e-13, rel=0)
    return table


@PROPERTY
@given(problem=coverage_problems())
def test_exact_coverage_matches_per_w_oracle(problem):
    """The per-W table bit for bit, and the DP within 1e-13 of its sum."""
    table = assert_dp_matches_per_w_oracle(problem)
    got = protocol_table(problem["func"], problem["generators"],
                         problem["sizes"], problem["theta"], problem["gammas"],
                         problem["k"], problem["r"])
    assert len(got) == len(table)
    for row, want in zip(got, table):
        assert row == want


@pytest.mark.parametrize("law", ["race", "numeric"])
@PROPERTY
@given(data=st.data())
def test_dp_coverage_matches_per_w_oracle_on_up_to_four_samples(law, data):
    """Nested min/max/kofn comparisons of two to four samples."""
    assert_dp_matches_per_w_oracle(
        data.draw(coverage_problems(max_w=400, max_m=4, law=law)))


@PROPERTY
@given(problem=coverage_problems(), seed=st.integers(0, 2**32),
       replications=st.integers(2, 5000))
def test_mc_coverage_matches_per_row_oracle(problem, seed, replications):
    rep = coverage_R(problem["func"], problem["generators"], problem["sizes"],
                     problem["theta"], problem["gammas"], problem["k"],
                     problem["r"], mode="mc", seed=seed,
                     replications=replications)
    coverage, se = coverage_oracle(
        problem["func"], problem["generators"], problem["sizes"],
        problem["theta"], problem["gammas"], problem["k"], problem["r"],
        mode="mc", seed=seed, replications=replications)
    assert rep.coverage == coverage
    assert rep.se == se


BAD_PROBABILITIES = st.sampled_from(
    [-1e-12, -0.5, 1.0 + 1e-12, 2.0, math.nan, math.inf, -math.inf])


@PROPERTY
@given(values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
       data=st.data())
def test_array_binomial_layers_match_scalars_and_reject_bad_entries(
        values, data):
    arr = np.array(values)
    rhos = rho(arr, 0.25, 16)
    cover = coverage_conditional(rhos[:, None], 10, np.array([0.5, 0.2]))
    for i, q in enumerate(values):
        assert rhos[i] == rho(q, 0.25, 16)
        assert tuple(cover[i]) == (coverage_conditional(rhos[i], 10, 0.5),
                                   coverage_conditional(rhos[i], 10, 0.2))
    bad = arr.copy()
    bad[data.draw(st.integers(0, len(arr) - 1))] = data.draw(BAD_PROBABILITIES)
    with pytest.raises(ValueError, match="q must be in"):
        rho(bad, 0.25, 16)
    with pytest.raises(ValueError, match="rho must be in"):
        coverage_conditional(bad, 10, 0.5)


# -- draws without replacement: one stream, three routes -------------------

@st.composite
def draw_shapes(draw, max_n=12):
    """(n, k) with k = 1, k = n and n = 1 drawn often, and shapes on both
    sides of the select route's switch, n = k**2 - 1 and n = k**2."""
    root = draw(st.integers(2, 6))
    n = draw(st.one_of(st.just(1), st.integers(1, max_n),
                       st.sampled_from([root * root - 1, root * root])))
    k = draw(st.one_of(st.just(1), st.just(n), st.just(min(root, n)),
                       st.integers(0, n)))
    return n, k


@PROPERTY
@given(shape=draw_shapes(), rows=st.integers(1, 40),
       cells=st.integers(1, 64), seed=st.integers(0, 2**32))
def test_draw_routes_agree_on_equal_digits(shape, rows, cells, seed):
    n, k = shape
    radices = _streams._radices(n, k)
    rng = np.random.default_rng(seed)
    digits = np.zeros((k, rows), dtype=np.intp)
    for i, radix in enumerate(radices):
        digits[i] = rng.integers(0, radix, size=rows)
    want = [fisher_yates_oracle(n, k, digits[:, j]) for j in range(rows)]
    select = _streams._fy_select(n, digits)
    # small row chunks in the dense route
    with mock.patch.object(_streams, "_DENSE_CELLS", cells):
        dense = _streams._fy_dense(n, digits)
    assert select.tolist() == want
    assert dense.tolist() == want
    if math.perm(n, k) <= _streams._TABLE_LIMIT:
        rank = np.zeros(rows, dtype=np.int64)
        for i, radix in enumerate(radices):
            rank = rank * radix + digits[i]
        assert _streams._outcome_table(n, k)[rank].tolist() == want
        decoded = np.empty((len(radices), rows), dtype=np.intp)
        _streams._decode_digits(rank, radices, decoded)
        assert decoded.tolist() == digits[:len(radices)].tolist()


@st.composite
def routed_shapes(draw):
    """(n, k) on each route of draw_distinct: the outcome table, compare and
    select (k**2 <= n) and the dense swap table, with n = k**2 on the
    select side of the switch and n = k**2 - 1 on the dense side, and
    single draws past the table (k = 1, n > 2**16)."""
    route = draw(st.sampled_from(["table", "select", "dense"]))
    if route == "table":
        # perm(n, k) <= 8! < 2**16
        n = draw(st.integers(1, 8))
        k = draw(st.integers(0, n))
    elif route == "select":
        k = draw(st.integers(1, 20))
        low = max(k * k, first_untabulated(k))
        n = draw(st.one_of(st.just(low), st.integers(low, low + 5000)))
    elif draw(st.booleans()):
        k = draw(st.integers(5, 20))
        n = k * k - 1
    else:
        n = draw(st.integers(10, 40))
        k = draw(st.integers(7, n))
    assert (math.perm(n, k) <= _streams._TABLE_LIMIT) == (route == "table")
    assert route == "table" or (k * k <= n) == (route == "select")
    return n, k


@PROPERTY
@given(shape=routed_shapes(), rows=st.lists(st.integers(0, 50), min_size=1,
                                            max_size=4),
       seed=st.integers(0, 2**32))
def test_draw_is_codes_then_outcomes(shape, rows, seed):
    n, k = shape
    rngs = [np.random.default_rng([seed, g]) for g in range(len(rows))]
    twins = [np.random.default_rng([seed, g]) for g in range(len(rows))]
    draws = [_streams.draw_distinct(rng, n, k, count)
             for rng, count in zip(rngs, rows)]
    codes = [_streams.distinct_codes(rng, n, k, count)
             for rng, count in zip(twins, rows)]
    for draw, code in zip(draws, codes):
        assert _streams.distinct_outcomes(n, k, code).tobytes() \
            == draw.tobytes()
    # the mapping reads only the codes: several generators' codes joined
    # and mapped once give each generator's outcomes, stacked
    joined = _streams.distinct_outcomes(n, k, np.concatenate(codes, axis=-1))
    assert joined.shape == (sum(rows), k)
    assert joined.tobytes() == np.concatenate(draws).tobytes()
    # and the split draws as much from each generator as the whole draw
    for rng, twin in zip(rngs, twins):
        assert rng.bit_generator.state == twin.bit_generator.state


def read_in_order(prefix, want, keep, seed):
    """Read every position of ``prefix`` in order for a row set that loses
    each row with chance 1 - ``keep`` after each position; check each
    read against the (rows, k) ``want``."""
    drop = np.random.default_rng(seed)
    live = None
    for i in range(prefix.k):
        expect = want[:, i] if live is None else want[live, i]
        assert prefix.position(i, live).tolist() == expect.tolist()
        stay = drop.random(len(expect)) < keep
        live = np.flatnonzero(stay) if live is None else live[stay]
    with pytest.raises(ValueError, match="read in order"):
        prefix.position(prefix.k, live)


@PROPERTY
@given(shape=routed_shapes(), rows=st.integers(0, 60),
       cells=st.sampled_from([_streams._DENSE_CELLS, 1]),
       seed=st.integers(0, 2**32), keep=st.floats(0.0, 1.0))
def test_prefix_reader_equals_outcomes(shape, rows, cells, seed, keep):
    """Reading positions in order for a shrinking set of rows gives the
    outcomes of distinct_outcomes, on every route, and off the whole
    outcomes once a dense table would pass ``_DENSE_CELLS``."""
    n, k = shape
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(_streams, "_DENSE_CELLS", cells):
        # one draw: read as drawn, raised by nothing
        prefix = _streams.joined_prefix(n, k, [
            _streams._code_draws(rng, n, k, rows)], n)
    want = _streams.distinct_outcomes(n, k, _streams.distinct_codes(
        twin, n, k, rows))
    # the reader takes exactly the draws of distinct_codes
    assert rng.bit_generator.state == twin.bit_generator.state
    # and builds no swap table past the cell bound
    assert prefix.decoded == bool(_streams._table_size(n, k) or (
        not _streams._selects(n, k) and n * rows > cells))
    read_in_order(prefix, want, keep, seed + 1)
    assert [prefix.row(j) for j in range(rows)] == want.tolist()
    some = np.flatnonzero(np.random.default_rng(seed).random(rows) < keep)
    assert prefix.outcomes(some).tolist() == want[some].tolist()


@PROPERTY
@given(shape=routed_shapes(), rows=st.lists(st.integers(0, 30), min_size=1,
                                            max_size=4),
       stride=st.integers(0, 100), seed=st.integers(0, 2**32),
       keep=st.floats(0.0, 1.0))
def test_joined_prefix_reads_each_draw_shifted(shape, rows, stride, seed,
                                               keep):
    """A reader over several generators' draws gives draw g's outcomes,
    raised by g * stride, in draw order."""
    n, k = shape
    rngs = [np.random.default_rng([seed, g]) for g in range(len(rows))]
    twins = [np.random.default_rng([seed, g]) for g in range(len(rows))]
    prefix = _streams.joined_prefix(n, k, [
        _streams._code_draws(rng, n, k, count)
        for rng, count in zip(rngs, rows)], stride)
    want = np.concatenate([
        _streams.draw_distinct(twin, n, k, count) + g * stride
        for g, (twin, count) in enumerate(zip(twins, rows))])
    for rng, twin in zip(rngs, twins):
        assert rng.bit_generator.state == twin.bit_generator.state
    read_in_order(prefix, want, keep, seed + 1)
    assert [prefix.row(j) for j in range(len(want))] == want.tolist()
    assert prefix.outcomes(np.arange(len(want))).tolist() == want.tolist()


@PROPERTY
@given(n=st.one_of(st.integers(1, 60), st.integers(60, 5000)),
       data=st.data(), rows=st.integers(0, 300), seed=st.integers(0, 2**32))
def test_draws_are_distinct_positions(n, data, rows, seed):
    k = data.draw(st.integers(0, min(n, 40)))
    out = _streams.draw_distinct(np.random.default_rng(seed), n, k, rows)
    assert out.shape == (rows, k)
    assert out.dtype == np.intp
    assert ((out >= 0) & (out < n)).all()
    assert all(len(set(row)) == k for row in out.tolist())


@pytest.mark.parametrize("table_limit", [_streams._TABLE_LIMIT, 0],
                         ids=["table", "swap-routes"])
def test_every_outcome_is_equally_likely(table_limit):
    rng = np.random.default_rng(31)
    with mock.patch.object(_streams, "_TABLE_LIMIT", table_limit):
        for n in range(1, 6):
            for k in range(n + 1):
                outcomes = list(itertools.permutations(range(n), k))
                rows = 300 * len(outcomes)
                draws = _streams.draw_distinct(rng, n, k, rows)
                counts = {o: 0 for o in outcomes}
                for row in map(tuple, draws.tolist()):
                    counts[row] += 1
                p = 1.0 / len(outcomes)
                se = math.sqrt(rows * p * (1.0 - p))
                for outcome, c in counts.items():
                    assert abs(c - rows * p) <= 5.0 * se + 1e-9, \
                        (n, k, outcome, c)


@PROPERTY
@given(n=st.one_of(st.just(1), st.integers(1, 100),
                   st.integers(_streams._TABLE_LIMIT, 10**9)),
       rows=st.integers(0, 200), seed=st.integers(0, 2**32))
def test_single_draw_is_one_bounded_integer_call(n, rows, seed):
    ours, plain = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _streams.draw_distinct(ours, n, 1, rows)
    assert got[:, 0].tolist() == plain.integers(0, n, size=rows).tolist()
    assert ours.bit_generator.state == plain.bit_generator.state


def test_two_of_a_large_shared_block_run_on_the_select_route():
    samples = SampleSet.from_samples([("s", np.arange(3000.0))],
                                     blocks={1: "s", 2: "s"})
    routes = []

    def spy(route):
        def call(n, digits):
            routes.append((route.__name__, n, digits.shape))
            return route(n, digits)
        return call

    with mock.patch.object(_streams, "_fy_select", spy(_streams._fy_select)), \
            mock.patch.object(_streams, "_fy_dense", spy(_streams._fy_dense)):
        idx = draw_index_batch(samples, 4096, np.random.default_rng(5))
    assert routes == [("_fy_select", 3000, (2, 4096))]
    assert idx.shape == (4096, 2)
    assert (idx[:, 0] != idx[:, 1]).all()
    assert ((idx >= 0) & (idx < 3000)).all()


# -- value draws: the draws of draw_index_batch, as values ----------------

@st.composite
def routed_layouts(draw):
    """SampleSets of one to three blocks, each on a route of draw_distinct
    (see ``routed_shapes``), with the blocks' arguments interleaved and
    every sample holding its own distinct values."""
    shapes = draw(st.lists(routed_shapes().filter(lambda s: s[1] >= 1),
                           min_size=1, max_size=3))
    m = sum(k for _, k in shapes)
    args = draw(st.permutations(range(1, m + 1)))
    blocks, samples, at = {}, [], 0
    for s, (n, k) in enumerate(shapes):
        samples.append((f"s{s}", 1000.0 * s + np.arange(n) * 1.25))
        blocks.update((a, f"s{s}") for a in args[at:at + k])
        at += k
    return SampleSet.from_samples(samples, blocks=blocks)


@PROPERTY
@given(samples=routed_layouts(), rows=st.integers(0, 50),
       seed=st.integers(0, 2**32))
def test_value_draws_equal_gathered_index_rows(samples, rows, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = draw_values(samples, rows, ours)
    want = samples.values_matrix(draw_index_batch(samples, rows, theirs)).T
    assert got.shape == (samples.m, rows) and got.dtype == np.float64
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state


# (n, k) shapes on the table route whose outcome counts collide (3, 6, 12
# and 24 outcomes each come from two or three shapes), and one shape on
# each Fisher-Yates route
JOINABLE_SHAPES = [(3, 1), (3, 2), (3, 3), (6, 1), (4, 2), (12, 1), (4, 3),
                   (4, 4), (24, 1), (5, 2)]
SWAP_SHAPES = [(300, 2), (10, 7)]


@st.composite
def joinable_layouts(draw):
    """SampleSets of one to six blocks, mostly on the table route with
    colliding outcome counts, adjacent or apart, and with Fisher-Yates
    blocks in between; arguments interleaved as in ``routed_layouts``."""
    shapes = draw(st.lists(st.sampled_from(JOINABLE_SHAPES + SWAP_SHAPES),
                           min_size=1, max_size=6))
    m = sum(k for _, k in shapes)
    args = draw(st.permutations(range(1, m + 1)))
    blocks, samples, at = {}, [], 0
    for s, (n, k) in enumerate(shapes):
        samples.append((f"s{s}", 1000.0 * s + np.arange(n) * 1.25))
        blocks.update((a, f"s{s}") for a in args[at:at + k])
        at += k
    return SampleSet.from_samples(samples, blocks=blocks)


@PROPERTY
@given(samples=joinable_layouts(), rows=st.integers(0, 50),
       seed=st.integers(0, 2**32))
def test_joined_draws_equal_a_draw_per_block(samples, rows, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = draw_values(samples, rows, ours)
    assert got.tobytes() == draw_values_oracle(samples, rows, theirs).tobytes()
    # the generator is left where a draw per block leaves it
    assert ours.integers(0, 2**62, 3).tolist() \
        == theirs.integers(0, 2**62, 3).tolist()
    # and the plan joins exactly the adjacent tabulated blocks of equal count
    counts = [_streams._table_size(b.size, b.draw_count)
              for b in samples.blocks]
    lengths = []
    for prev, count in zip([0] + counts, counts):
        if count and count == prev:
            lengths[-1] += 1
        else:
            lengths.append(1)
    assert [len(run) for run in samples.draw_plan] == lengths


def fixed_layout(name) -> SampleSet:
    """One layout per draw route: singleton and shared blocks on the table
    route, a four-of-eight table, and two- and seven-argument blocks on
    the Fisher-Yates routes, select ("sparse": two of 400) and dense."""
    rng = np.random.default_rng(17)
    col = lambda n: np.round(rng.exponential(1.0, n), 3)  # noqa: E731
    if name == "singleton":
        return SampleSet.from_samples([("a", col(3)), ("b", col(4)),
                                       ("c", col(5))])
    if name == "shared":
        return SampleSet.from_samples([("a", col(4)), ("b", col(3))],
                                      blocks={1: "a", 2: "b", 3: "a"})
    if name == "table":
        return SampleSet.from_samples([("a", col(8))],
                                      blocks={i: "a" for i in range(1, 5)})
    if name == "sparse":
        return SampleSet.from_samples([("a", col(400)), ("b", col(5))],
                                      blocks={1: "a", 2: "b", 3: "a"})
    return SampleSet.from_samples([("a", col(12)), ("b", col(3))],
                                  blocks={i: "a" if i != 4 else "b"
                                          for i in range(1, 9)})


FIXED_LAYOUTS = ["singleton", "shared", "table", "sparse", "dense"]
ORACLE_R = [1, 2, 10, 4096, 4097]


def test_fixed_layouts_take_every_draw_route():
    routes = set()
    for name in FIXED_LAYOUTS:
        for n, k, _, table, _ in itertools.chain.from_iterable(
                fixed_layout(name).draw_plan):
            routes.add("table" if table is not None
                       else "select" if k * k <= n else "dense")
    assert routes == {"table", "select", "dense"}


def same_estimate(got: EstimateResult, want: EstimateResult) -> bool:
    return (np.float64(got.estimate).tobytes(),
            np.float64(got.empirical_variance).tobytes(),
            got.realizations, got.seed) == (
        np.float64(want.estimate).tobytes(),
        np.float64(want.empirical_variance).tobytes(),
        want.realizations, want.seed)


def kofn_text(args) -> str:
    return f"kofn(2; {', '.join(f'x{a}' for a in args)})"


@pytest.mark.parametrize("r", ORACLE_R)
@pytest.mark.parametrize("layout", FIXED_LAYOUTS)
def test_estimate_theta_equals_index_row_loop(layout, r):
    samples = fixed_layout(layout)
    spec = parse_system(f"sum({kofn_text(range(1, samples.m))}, "
                        f"x{samples.m})")
    got = estimate_theta(spec, samples, r, seed=r + 3, keep_values=True)
    assert same_estimate(got, estimate_theta_oracle(spec, samples, r, r + 3))
    assert got.values.shape == (r,)


@pytest.mark.parametrize("r", ORACLE_R)
@pytest.mark.parametrize("layout", FIXED_LAYOUTS)
def test_known_g_equals_index_row_loop(layout, r):
    samples = fixed_layout(layout)

    def g(X):
        return np.sin(X).sum(axis=-1) ** 2

    for vectorized in (True, False):
        got = estimate_known_g(g, samples, r, seed=5, vectorized=vectorized)
        want = known_g_oracle(g, samples, r, 5, vectorized)
        assert same_estimate(got, want)


@pytest.mark.parametrize("r", ORACLE_R)
@pytest.mark.parametrize("layout", FIXED_LAYOUTS)
def test_inner_mc_equals_index_row_loop(layout, r):
    samples = fixed_layout(layout)
    m = samples.m
    spec = parse_system(f"min({kofn_text(range(1, m + 1))}, "
                        f"max(x{m + 1}, x{m + 2}))")
    z_dists = [exponential(1.0), uniform(0.0, 2.0)]
    # 40 // 3 = 13 realizations a chunk, so a block takes several chunks
    with mock.patch.object(partial_module, "_ROWS_CHUNK", 40):
        got = estimate_inner_mc(spec, samples, z_dists, 3, r, seed=9)
    want = inner_mc_oracle(spec, samples, z_dists, 3, r, 9, rows_chunk=40)
    assert same_estimate(got, want)


@pytest.mark.parametrize("r", ORACLE_R)
@pytest.mark.parametrize("layout", FIXED_LAYOUTS)
def test_resampling_interval_equals_index_row_loop(layout, r):
    samples = fixed_layout(layout)
    func = OrderFunctional(parse_system(
        f"cmp(x1 < {kofn_text(range(2, samples.m + 1))})"))
    got = resampling_interval(func, samples, 0.5, 4, r, seed=11)
    want = resampling_interval_oracle(func, samples, 0.5, 4, r, 11)
    assert got == want


# -- the rank table of repeated seeded estimates --------------------------

# r of one realization, a few, one whole block, one row past it, and three
# blocks
SEEDED_R = [1, 7, _streams.BLOCK, _streams.BLOCK + 1, 2 * _streams.BLOCK + 5]


def fresh_copy(samples: SampleSet) -> SampleSet:
    """The same samples in a sample set that has run no seeded estimate."""
    return SampleSet(samples.names, samples.columns, samples.arg_to_sample)


def rank_table_of(spec, samples: SampleSet):
    """``samples`` after one seeded estimate of ``spec``, so that the next
    one reads the rank table where the grid has one."""
    estimate_theta(spec, samples, 1, seed=0)
    return samples


@settings(PROPERTY, max_examples=40)
@given(samples=layouts(max_size=5, max_vectors=_streams.BLOCK),
       r=st.sampled_from(SEEDED_R), data=st.data())
def test_rank_table_route_equals_draw_route_byte_for_byte(samples, r, data):
    text, _ = data.draw(systems(samples.m))
    spec = parse_system(text)
    seed = data.draw(st.integers(0, 2**32))
    cold, used = fresh_copy(samples), rank_table_of(spec, fresh_copy(samples))
    want = estimate_theta(spec, cold, r, seed=seed, keep_values=True)
    got = estimate_theta(spec, used, r, seed=seed, keep_values=True)
    assert cold._seeded[1] is None  # the draw route ran
    assert used._seeded[1] is not None  # the table route ran
    assert same_estimate(got, want)
    assert got.values.tobytes() == want.values.tobytes()


@PROPERTY
@given(n=st.one_of(st.integers(1, 12), st.integers(1, 5000)),
       seed=st.integers(0, 2**32), spread=st.integers(0, 30),
       kind=st.sampled_from(["mixed", "indicator", "shifted"]))
def test_estimate_moments_equal_numpy_mean_and_var(n, seed, spread, kind):
    rng = np.random.default_rng(seed)
    if kind == "indicator":
        values = (rng.random(n) < rng.random()).astype(float)
    else:
        # magnitudes from 10**-spread to 10**spread in one array
        values = rng.standard_normal(n) * 10.0 ** rng.integers(
            -spread, spread + 1, n)
        if kind == "shifted":
            values += 10.0 ** spread
    kept = values.copy()
    got = EstimateResult.from_values(values, seed, keep_values=True)
    want_var = np.var(kept, ddof=1) if n > 1 else 0.0
    assert np.float64(got.estimate).tobytes() == kept.mean().tobytes()
    assert np.float64(got.empirical_variance).tobytes() \
        == np.float64(want_var).tobytes()
    assert got.values is values and values.tobytes() == kept.tobytes()
    assert got.realizations == n and got.seed == seed


def test_one_realization_has_zero_variance():
    got = EstimateResult.from_values(np.array([0.75]), 4)
    assert (got.estimate, got.empirical_variance, got.values) == (0.75, 0.0,
                                                                 None)


# -- batched substream keys ----------------------------------------------

# integers that SeedSequence splits into 1, 2, 3, 4 and 5 words
SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**62, 2**64, 2**64 + 1, 2**96,
                     2**128 + 3]),
    st.integers(0, 2**32 - 1), st.integers(0, 2**70))
KEY_ENTRIES = st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 1),
                        st.integers(2**32, 2**70))


def integer_column(values) -> np.ndarray:
    """int64, uint64 or object array, whichever holds every value."""
    top = max(values)
    dtype = np.int64 if top < 2**63 else np.uint64 if top < 2**64 else object
    return np.array(values, dtype=dtype)


def seedsequence_key(seed, key):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(
        2, np.uint64)


@PROPERTY
@given(seeds=st.lists(SEEDS, min_size=1, max_size=3 * _streams._HASH_MIN_ROWS),
       width=st.integers(0, 3), scalar_seed=st.booleans(), data=st.data())
def test_substream_keys_equal_numpy_seedsequence(seeds, width, scalar_seed,
                                                 data):
    scalar_seed &= width > 0
    if scalar_seed:
        seeds = [seeds[0]] * len(seeds)
    keys = [tuple(data.draw(st.lists(KEY_ENTRIES, min_size=width,
                                     max_size=width)))
            for _ in seeds]
    want = np.array([seedsequence_key(s, k) for s, k in zip(seeds, keys)])
    cols = [seeds[0] if scalar_seed else integer_column(seeds)]
    cols += [integer_column(col) for col in zip(*keys)]
    got = _streams.substream_keys(*cols)
    assert got.dtype == np.uint64 and got.tolist() == want.tolist()
    rows = np.broadcast_arrays(*map(np.atleast_1d, cols))
    for route in (pool_keys, _streams._hashed_keys):
        assert route(rows).tolist() == want.tolist()


def pool_keys(rows) -> np.ndarray:
    """substream_keys's short-batch route on every row, as (K, 2) uint64."""
    return np.array([_streams._pool_key(*row)
                     for row in zip(*(c.tolist() for c in rows))],
                    dtype=np.uint64)


def draws(g, n):
    """A few of every kind of draw the library takes, uint32 ones first so
    that a buffered half word is in play."""
    return [g.integers(0, 2**31, n, dtype=np.uint32).tolist(),
            g.random(n).tolist(), g.integers(0, 7, n).tolist(),
            g.integers(0, 2**40).item(), g.exponential(2.0, n).tolist(),
            g.normal(size=n).tolist(), g.triangular(0.0, 1.0, 3.0, n).tolist()]


@PROPERTY
@given(seed=SEEDS, key=st.lists(KEY_ENTRIES, min_size=1, max_size=3),
       n=st.integers(1, 9), used=st.integers(0, 5))
def test_keyed_generator_draws_equal_substream(seed, key, n, used):
    stream = _streams.KeyedGenerator()
    # a generator left mid-stream, with a buffered uint32 half word when
    # ``used`` is odd, must not leak into the next key
    stream(seedsequence_key(seed + 1, [3]).tolist()).integers(
        0, 9, used, dtype=np.uint32)
    got = draws(stream(_streams.substream_keys(seed, *key)[0].tolist()), n)
    assert got == draws(_streams.substream(seed, *key), n)


@pytest.mark.parametrize("seeds, key", [
    (np.array([3, -1]), np.array([1, 2])),
    (np.arange(-1, 2 * _streams._HASH_MIN_ROWS), 1),
    (5, np.array([0, -4])),
    (np.array([2**70, -1], dtype=object), 1)])
def test_negative_seeds_and_keys_raise_on_both_routes(seeds, key):
    rows = np.broadcast_arrays(*map(np.atleast_1d, (seeds, key)))
    for route in (pool_keys, _streams._hashed_keys,
                  lambda rows: _streams.substream_keys(*rows)):
        with pytest.raises(ValueError):
            route(rows)


# -- the hierarchical cascade against one loop per estimator --------------

Z_LAWS = (exponential(1.0), uniform(0.0, 2.0), normal(1.0, 0.5))


@st.composite
def wave_problems(draw):
    """A singleton tree over data arguments 1..m and Z arguments m+1..m+v,
    its data (every argument bound, for the scalar cascade) and node sizes
    of which some are the product of their children's sizes."""
    nu = draw(st.integers(0, 2))
    m = draw(st.integers(1, 4))
    text, _ = draw(systems(m + nu))
    spec = parse_system(text)
    assume(spec.table[-1][2])   # the root is an operator
    cols = [draw(st.lists(CELLS, min_size=n, max_size=n))
            for n in draw(st.lists(st.integers(1, 4), min_size=m + nu,
                                   max_size=m + nu))]
    full = SampleSet.from_samples(
        [(f"x{i + 1}", c) for i, c in enumerate(cols)])
    counts = {i: len(c) for i, c in enumerate(cols, start=1)}
    sizes = {}
    for nid, _, kids in spec.table:
        if kids:
            kind = draw(st.sampled_from(["product"] * 4 + ["small"] * 3
                                        + ["blocks"]))
            sizes[nid] = counts[nid] = (
                math.prod(counts[c] for c in kids) if kind == "product"
                else draw(st.integers(1, 6)) if kind == "small"
                else _streams.BLOCK + 3)
    return spec, full, m, [draw(st.sampled_from(Z_LAWS)) for _ in range(nu)], \
        sizes


def result_bits(res):
    return (np.float64(res.estimate).tobytes(), res.realizations,
            np.float64(res.empirical_variance).tobytes(),
            res.values.dtype, res.values.shape, res.values.tobytes())


def enumerated_nodes(spec, data_args, counts, sizes):
    """Nodes the cascade enumerates: sized to the product of their
    children's sizes, every child a data argument or enumerated."""
    counts = {**counts, **sizes}
    done = set(data_args)
    for nid, _, kids in spec.table:
        if kids and all(c in done for c in kids) \
                and sizes[nid] == math.prod(counts[c] for c in kids):
            done.add(nid)
    return done - set(data_args)


@settings(PROPERTY, max_examples=60)
@given(problem=wave_problems(), seed=st.integers(0, 2**32 - 1),
       N=st.integers(1, 4))
def test_cascade_equals_a_loop_per_estimator(problem, seed, N):
    spec, full, m, z_dists, sizes = problem
    got = wave_estimate(spec, full, sizes, seed, keep_values=True)
    # the scalar cascade draws counts inside the threshold-class map
    oracle = wave_count_oracle if spec.class_levels else wave_oracle
    assert result_bits(got) == result_bits(oracle(spec, full, sizes, seed))
    plain = dataclasses.replace(wave_estimate(spec, full, sizes, seed),
                                values=got.values)
    assert result_bits(plain) == result_bits(got)
    # the vector cascade binds the first m arguments to data
    samples = SampleSet.from_samples(
        [(f"x{i}", full.values_for_arg(i)) for i in range(1, m + 1)])
    got = wave_estimate_vector_samples(spec, samples, z_dists, N, sizes, seed,
                                       keep_values=True)
    counts = {i: len(samples.values_for_arg(i)) for i in range(1, m + 1)}
    if enumerated_nodes(spec, range(1, m + 1), counts, sizes):
        return  # the one documented difference: the oracle samples them
    want = vector_wave_oracle(spec, samples, z_dists, N, sizes, seed)
    assert result_bits(got) == result_bits(want)


@st.composite
def threshold_wave_problems(draw):
    """An ``ind`` over a tree of ``min``, ``max``, ``kofn`` and ``sum``
    nodes on three to six data arguments, data on a coarse grid so that
    classes tie and mix, and node sizes of 2 to 30."""
    m = draw(st.integers(3, 6))
    leaves = draw(st.permutations(range(1, m + 1)))
    spec = parse_system(draw(indicator(draw(subtree(
        leaves, ("min", "max", "kofn", "sum"))))))
    values = st.sampled_from([0.5, 1.0, 1.25, 2.0, 3.0])
    full = SampleSet.from_samples(
        [(f"x{i}", draw(st.lists(values, min_size=2, max_size=5)))
         for i in range(1, m + 1)])
    sizes = {nid: draw(st.integers(2, 30)) for nid, _, kids in spec.table
             if kids}
    return spec, full, sizes


@settings(PROPERTY, max_examples=300)
@given(problem=threshold_wave_problems(), seed=st.integers(0, 2**32 - 1))
def test_count_cascade_equals_the_count_loop_on_threshold_systems(problem,
                                                                  seed):
    """Every generated threshold system, wide nodes and all, gives the bits
    of :func:`wave_count_oracle`, whose rules sum over subsets of
    children."""
    spec, full, sizes = problem
    got = wave_estimate(spec, full, sizes, seed, keep_values=True)
    assert result_bits(got) \
        == result_bits(wave_count_oracle(spec, full, sizes, seed))


@settings(PROPERTY, max_examples=12)
@given(problem=threshold_wave_problems())
@example(problem=(  # a sum of data leaves drawn off its 9-cell grid
    parse_system("ind(max(min(x1, x2), sum(x3, x4)) > 2.2)"),
    SampleSet.from_json({"x1": [1.0, 3.0], "x2": [2.5, 0.5, 3.0],
                         "x3": [0.5, 1.25, 2.0], "x4": [0.5, 1.0, 3.0]}),
    {5: 4, 6: 12, 7: 5, 8: 6}))
def test_count_cascade_has_the_element_cascades_law(problem):
    """Over 400 seeds each, the count cascade's estimates and the element
    cascade's (the loop of :func:`wave_oracle`) agree in mean and variance
    within 4 SE, and a two-sample KS test does not tell them apart."""
    spec, full, sizes = problem
    assert spec.class_levels
    seeds = range(400)
    counts = np.array([wave_estimate(spec, full, sizes, k).estimate
                       for k in seeds])
    elements = np.array([wave_oracle(spec, full, sizes, k).estimate
                         for k in seeds])
    se = math.hypot(counts.std(ddof=1), elements.std(ddof=1)) / 20.0
    assert abs(counts.mean() - elements.mean()) <= 4 * se + 1e-12
    assert abs(counts.var(ddof=1) - elements.var(ddof=1)) \
        <= 4 * math.hypot(var_se(counts), var_se(elements)) + 1e-12
    assert stats.ks_2samp(counts, elements).pvalue > 1e-3
