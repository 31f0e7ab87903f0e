"""The tables the exact routes keep once per shape, and the parsed specs.

Each cached table must equal a cold build, be immutable or read-only, and
leave every budget check in place: an over-budget call raises the same
``BudgetExceededError`` whether the cache is warm or cold.  A parsed spec
must equal a cold parse, and a bad text or parameter must raise the same
error warm or cold.  A last test keeps every argument-taking cache in the
package bounded.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resamplekit
from resamplekit import (BlockLayout, BudgetExceededError, SampleSet,
                         enumerate_pairs, exponential, parse_system,
                         resampling_variance)
from resamplekit.coverage import (OrderFunctional, _dp_plan, _hit_plan,
                                  coverage_R)
from resamplekit.pairs import (_pair_counts, _pattern_cells, _pattern_table,
                               _table_cells)
from resamplekit.samples import _cached_draws
from resamplekit.systems import _parse, _parse_cached, render

from helpers import CHAIN_OPS, systems

CACHED = settings(derandomize=True, deadline=None, max_examples=30,
                  database=None)


@st.composite
def block_layouts(draw, max_m=4, max_size=5):
    """Argument partitions into blocks with sample sizes."""
    m = draw(st.integers(1, max_m))
    binding = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    block_args = [tuple(a for a in range(1, m + 1) if binding[a - 1] == s)
                  for s in sorted(set(binding))]
    sizes = [draw(st.integers(len(args), max(len(args), max_size)))
             for args in block_args]
    return BlockLayout(tuple(block_args), tuple(sizes))


@st.composite
def order_functionals(draw):
    """``cmp(left < right)`` or ``cmp(left > right)`` over x1..xm, m = 2
    or 3, each side built from min, max and k-of-n, with sample sizes."""
    m = draw(st.integers(2, 3))
    leaves = draw(st.permutations(range(1, m + 1)))

    def side(part):
        if len(part) == 1:
            return f"x{part[0]}"
        op = draw(st.sampled_from(["min", "max", "kofn(2;"]))
        inner = ", ".join(f"x{a}" for a in part)
        return f"{op}{inner})" if op.startswith("kofn") else f"{op}({inner})"

    cut = draw(st.integers(1, m - 1))
    op = draw(st.sampled_from("<>"))
    text = f"cmp({side(leaves[:cut])} {op} {side(leaves[cut:])})"
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    return OrderFunctional(parse_system(text)), sizes


def families(layout: BlockLayout):
    return ["omega", "alpha", "beta"] if layout.singleton_blocks \
        else ["alpha", "beta"]


def budget_error(call):
    """(needed, budget, what) of the BudgetExceededError ``call`` raises,
    or None."""
    try:
        call()
    except BudgetExceededError as err:
        return err.needed, err.budget, err.what
    return None


def data_of(layout: BlockLayout) -> SampleSet:
    """Samples of the layout's sizes with distinct values."""
    names = [f"s{b}" for b in range(len(layout.block_args))]
    blocks = {a: name for args, name in zip(layout.block_args, names)
              for a in args}
    return SampleSet.from_samples(
        [(name, np.arange(n) * 0.5 + b) for b, (name, n)
         in enumerate(zip(names, layout.block_sizes))], blocks=blocks)


def error_of(call):
    """(type, message) of the exception ``call`` raises, or None."""
    try:
        call()
    except Exception as err:
        return type(err), str(err)
    return None


def clear_variance_caches():
    """Empty every cache an exact variance report reads."""
    for cache in (_pattern_table, _table_cells, _pair_counts, _cached_draws):
        cache.cache_clear()


def sum_system(m: int):
    return parse_system(f"sum({', '.join(f'x{a}' for a in range(1, m + 1))})")


# -- cached tables equal cold builds --------------------------------------

@CACHED
@given(block_layouts())
def test_pattern_tables_equal_cold_builds(layout):
    for family in families(layout):
        warm = enumerate_pairs(layout, family)
        _pattern_table.cache_clear()
        cold = enumerate_pairs(layout, family)
        assert cold == warm
        assert enumerate_pairs(layout, family) == cold
        patterns = tuple(pattern for pattern, _ in cold)
        cells = _table_cells(layout, patterns)
        _table_cells.cache_clear()
        assert _table_cells(layout, patterns) == cells
        assert cells == tuple(_pattern_cells(pattern, layout)
                              for pattern in patterns)


@CACHED
@given(block_layouts())
def test_returned_pattern_lists_are_the_callers(layout):
    want = enumerate_pairs(layout)
    got = enumerate_pairs(layout)
    assert got is not want
    got.append(("junk", 1.0))
    got[0] = None
    got.reverse()
    assert enumerate_pairs(layout) == want
    got.clear()
    assert enumerate_pairs(layout) == want


@CACHED
@given(block_layouts(max_m=3))
def test_variance_reports_equal_cold_builds(layout):
    spec, samples = sum_system(layout.m), data_of(layout)
    warm = resampling_variance(spec, samples, 3)
    clear_variance_caches()
    assert resampling_variance(spec, samples, 3) == warm


@CACHED
@given(order_functionals())
def test_coverage_plans_equal_cold_builds(problem):
    func, sizes = problem
    key = (render(func.spec.root), sizes)
    hits, levels = _hit_plan(func, sizes, None)
    _dp_plan.cache_clear()
    cold_hits, cold_levels = _hit_plan(func, sizes, None)
    assert hits.tobytes() == cold_hits.tobytes()
    assert levels == cold_levels
    assert not cold_hits.flags.writeable
    assert _dp_plan(*key)[0] is cold_hits  # shared, not rebuilt
    gens = [exponential(1.0 + i) for i in range(func.m)]
    warm = coverage_R(func, gens, sizes, 0.4, 0.8, 5, 6)
    _dp_plan.cache_clear()
    assert coverage_R(func, gens, sizes, 0.4, 0.8, 5, 6) == warm


def test_cached_arrays_are_read_only():
    func = OrderFunctional(parse_system("cmp(x1 < min(x2, x3))"))
    hits, _ = _hit_plan(func, (2, 2, 2), None)
    with pytest.raises(ValueError):
        hits[0] = 7


def spec_fields(spec):
    """Everything a cold parse decides: text, table, m, leaf sets and the
    threshold-class map."""
    return (render(spec.root), spec.table, spec.m, dict(spec.leaf_deps),
            dict(spec.class_levels))


@CACHED
@given(m=st.integers(1, 4), depth=st.integers(0, 30),
       ops=st.lists(st.sampled_from(CHAIN_OPS), min_size=1, max_size=3),
       level=st.sampled_from([None, -0.0, 0.0, 1, 1.5, True]),
       data=st.data())
def test_parsed_specs_equal_cold_builds(m, depth, ops, level, data):
    """The texts of the render/parse round trip, under a chain of one-child
    operators and, with a level, an indicator on a parameter."""
    body, _ = data.draw(systems(m))
    text = "".join(ops[i % len(ops)] for i in range(depth)) + body \
        + ")" * depth
    params = None
    if level is not None:
        text, params = f"ind({text} < t)", {"t": level}
    warm = parse_system(text, params)
    _parse_cached.cache_clear()
    cold = parse_system(text, params)
    assert cold is not warm
    assert spec_fields(cold) == spec_fields(warm) \
        == spec_fields(_parse(text, params))
    assert parse_system(text, dict(params or {})) is cold
    again = parse_system(render(cold.root))
    assert render(again.root) == render(cold.root)


BAD_SPECS = [
    ("min(x1", None),
    ("min()", None),
    ("ind(x1 >> 1)", None),
    ("foo(x1)", None),
    ("kofn(2, x1, x2)", None),
    ("kofn(4; x1, x2, x3)", None),
    ("min(x1, x1)", None),
    ("min(x1,, x2) $", None),   # the first error, not the bad character
    ("min(x1, x2) $", None),
    ("min(x1, x2) x3", None),
    ("ind(x1 > t)", None),
    ("ind(x1 > t)", {"u": 1.0}),
    ("ind(x1 > t)", {"t": float("nan")}),
    ("ind(x1 > t)", {"t": "level"}),
    ("ind(x1 > t)", {"t": [1]}),
    ("foo(x1 > t)", {"t": [1]}),  # the syntax error comes first
    (None, None),
]


@pytest.mark.parametrize("text, params", BAD_SPECS)
def test_bad_specs_raise_alike_warm_and_cold(text, params):
    parse_system("ind(x1 > t)", {"t": 1.0})
    parse_system("min(x1, x2)")
    _parse_cached.cache_clear()
    cold = error_of(lambda: parse_system(text, params))
    assert cold is not None
    assert error_of(lambda: _parse(text, params)) == cold
    assert _parse_cached.cache_info().currsize == 0  # failures not kept
    parse_system("ind(x1 > t)", {"t": 1.0})
    parse_system("min(x1, x2)")
    assert error_of(lambda: parse_system(text, params)) == cold


@settings(CACHED, max_examples=200)
@given(st.lists(st.sampled_from(list("x12 ,;()<>.-+$") + [
    "min(", "max(", "kofn(", "ind(", "cmp(", "x1", "x2", "t", "u", "1.5"]),
    max_size=12).map("".join))
def test_parsed_text_answers_alike_warm_and_cold(text):
    """Any text, good or bad, gives the same spec or the same error."""
    params = {"t": 0.5, "u": -0.0}

    def outcome():
        try:
            spec = parse_system(text, params)
        except ValueError as err:
            return type(err), str(err)
        return spec_fields(spec)

    _parse_cached.cache_clear()
    cold = outcome()
    assert outcome() == cold


# -- budgets warm and cold -------------------------------------------------

@CACHED
@given(block_layouts(), st.integers(1, 40))
def test_pattern_budgets_raise_alike_warm_and_cold(layout, budget):
    for family in families(layout):
        _pattern_table.cache_clear()
        cold = budget_error(lambda: enumerate_pairs(layout, family, budget))
        enumerate_pairs(layout, family)
        warm = budget_error(lambda: enumerate_pairs(layout, family, budget))
        assert warm == cold
        if cold is not None:
            # the count: one per table row, except omega patterns of
            # probability 0 (a sample of size 1 is always shared)
            table = enumerate_pairs(layout, family)
            if family == "omega":
                assert cold[0] >= len(table)
            else:
                assert cold[0] == len(table)
            assert cold[1:] == (budget, f"{family} pattern enumeration")


@CACHED
@given(block_layouts(max_m=3), st.integers(1, 400))
def test_variance_budgets_raise_alike_warm_and_cold(layout, budget):
    spec, samples = sum_system(layout.m), data_of(layout)
    clear_variance_caches()
    cold = budget_error(lambda: resampling_variance(spec, samples, 2,
                                                    budget=budget))
    resampling_variance(spec, samples, 2)
    warm = budget_error(lambda: resampling_variance(spec, samples, 2,
                                                    budget=budget))
    assert warm == cold


@CACHED
@given(order_functionals(), st.integers(1, 120))
def test_coverage_budgets_raise_alike_warm_and_cold(problem, budget):
    func, sizes = problem
    gens = [exponential(1.0)] * func.m

    def call():
        return coverage_R(func, gens, sizes, 0.4, 0.8, 5, 6, budget=budget)

    _dp_plan.cache_clear()
    cold = budget_error(call)
    coverage_R(func, gens, sizes, 0.4, 0.8, 5, 6)
    warm = budget_error(call)
    assert warm == cold
    if cold is not None:
        assert cold[1:] == (budget, "coverage DP states")


def test_coverage_budget_counts_cells_then_states():
    """At (3, 3, 3) the DP has 64 count vectors and more states than
    that: a budget between the two passes the cells and fails on a
    level's states, warm as cold."""
    func = OrderFunctional(parse_system("cmp(x3 < min(x1, x2))"))
    sizes, gens = (3, 3, 3), [exponential(1.0)] * 3
    _dp_plan.cache_clear()
    errors = [budget_error(lambda: coverage_R(func, gens, sizes, 0.4, 0.8,
                                              5, 6, budget=budget))
              for budget in (63, 64)]
    assert errors[0] == (64, 63, "coverage DP states")
    assert errors[1] is not None and errors[1][0] > 64
    for budget, cold in zip((63, 64), errors):
        assert budget_error(lambda: coverage_R(
            func, gens, sizes, 0.4, 0.8, 5, 6, budget=budget)) == cold


# -- every cache is bounded -------------------------------------------------

def cache_wrappers():
    """(qualified name, wrapper) of every functools cache in the package,
    at module level or on a class."""
    for info in pkgutil.iter_modules(resamplekit.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"resamplekit.{info.name}")
        owners = {module.__name__: module}
        owners.update((f"{module.__name__}.{name}", value)
                      for name, value in vars(module).items()
                      if inspect.isclass(value)
                      and value.__module__ == module.__name__)
        for prefix, owner in owners.items():
            for name, value in vars(owner).items():
                if isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                if hasattr(value, "cache_parameters") and \
                        getattr(value, "__module__", None) == module.__name__:
                    yield f"{prefix}.{name}", value


def test_caches_that_take_arguments_are_bounded():
    found = dict(cache_wrappers())
    # the scan sees the known caches, bounded and not
    for name in ("pairs._pattern_table", "pairs._table_cells",
                 "pairs._block_plan", "pairs._pair_counts",
                 "samples._cached_draws",
                 "coverage._dp_plan", "coverage._gauss_rule",
                 "_streams._outcome_table", "systems._parse_cached",
                 "cli._build_parser"):
        assert f"resamplekit.{name}" in found
    unbounded = [name for name, wrapper in found.items()
                 if wrapper.cache_parameters()["maxsize"] is None
                 and inspect.signature(wrapper).parameters]
    assert unbounded == []

