import dataclasses
import gc
import itertools
import sys
import weakref

import numpy as np
import pytest

from resamplekit import SystemSyntaxError, SystemValidationError, parse_system
from resamplekit.partial import three_branch_system
from resamplekit.systems import (Input, Max, Min, SystemSpec, Threshold,
                                 _parse_cached, class_levels, evaluate,
                                 evaluate_batch, leaf_dependencies, render)

from helpers import children_ids, parent_of


def test_six_tree_anchor(six_tree):
    # min(max(1,2), min(3,4), 5+6) = 2, below the t=10 level
    assert evaluate(six_tree, [1, 2, 3, 4, 5, 6]) == 1.0
    assert evaluate(six_tree, [20, 21, 22, 23, 24, 25]) == 0.0


@pytest.mark.parametrize("bits", list(itertools.product([0, 1], repeat=3)))
def test_two_of_three_truth_table(two_of_three, bits):
    x = [1.5 if b else 0.5 for b in bits]
    assert evaluate(two_of_three, x) == float(sum(bits) >= 2)


@pytest.mark.parametrize("text, x, expected", [
    ("min(x1, x2, x3)", [3.0, 1.0, 2.0], 1.0),
    ("max(x1, x2, x3)", [3.0, 1.0, 2.0], 3.0),
    ("sum(x1, x2)", [3.0, 1.5], 4.5),
    ("kofn(1; x1, x2)", [3.0, 7.0], 7.0),   # 1-of-2 = parallel = max
    ("kofn(2; x1, x2)", [3.0, 7.0], 3.0),   # 2-of-2 = series = min
    ("kofn(2; x1, x2, x3)", [9.0, 1.0, 5.0], 5.0),  # second largest
])
def test_operator_semantics(text, x, expected):
    assert evaluate(parse_system(text), x) == expected


def test_threshold_tie_convention():
    """A value exactly at the level counts as not-greater."""
    assert evaluate(parse_system("ind(x1 > 1)"), [1.0]) == 0.0
    assert evaluate(parse_system("ind(x1 < 1)"), [1.0]) == 1.0
    assert evaluate(parse_system("cmp(x1 < x2)"), [2.0, 2.0]) == 1.0
    assert evaluate(parse_system("cmp(x1 < x2)"), [2.5, 2.0]) == 0.0


def test_params_substitution():
    spec = parse_system("ind(x1 > t)", params={"t": 2.5})
    assert evaluate(spec, [2.6]) == 1.0
    assert evaluate(spec, [2.4]) == 0.0
    with pytest.raises(SystemSyntaxError):
        parse_system("ind(x1 > t)")  # parameter never bound


def test_evaluate_batch_matches_scalar(six_tree):
    rng = np.random.default_rng(3)
    X = rng.exponential(5.0, size=(40, 6))
    batch = evaluate_batch(six_tree, X)
    scalar = np.array([evaluate(six_tree, row) for row in X])
    np.testing.assert_array_equal(batch, scalar)


def test_indicator_output_binary(two_of_three, six_tree):
    rng = np.random.default_rng(8)
    for spec in (two_of_three, six_tree):
        vals = evaluate_batch(spec, rng.exponential(4.0, size=(200, spec.m)))
        assert set(np.unique(vals)) <= {0.0, 1.0}


def test_render_round_trip(six_tree, two_of_three):
    for spec in (six_tree, two_of_three):
        again = parse_system(render(spec.root))
        x = np.linspace(0.2, 8.0, spec.m)
        assert evaluate(again, x) == evaluate(spec, x)


@pytest.mark.parametrize("text", [
    "min(x1",
    "min()",
    "ind(x1 >> 1)",
    "foo(x1)",
    "kofn(2, x1, x2)",      # comma where the semicolon belongs
    "ind(min(x1, x2) > )",
])
def test_syntax_errors(text):
    with pytest.raises(SystemSyntaxError):
        parse_system(text)


@pytest.mark.parametrize("text", [
    "kofn(4; x1, x2, x3)",
    "kofn(0; x1)",
    "min(x1, x3)",          # leaf gap: x2 missing
    "min(x1, x1)",          # repeated leaf
])
def test_validation_errors(text):
    with pytest.raises(SystemValidationError):
        parse_system(text)


def test_nan_threshold_level_is_rejected():
    """A NaN level compares false everywhere, so the spec would read 0 on
    every input; each way of building one raises."""
    nan = float("nan")
    with pytest.raises(SystemValidationError, match="threshold level is NaN"):
        parse_system("ind(x1 > t)", params={"t": nan})
    with pytest.raises(SystemValidationError, match="threshold level is NaN"):
        three_branch_system(nan)
    with pytest.raises(SystemValidationError, match="threshold level is NaN"):
        SystemSpec(Threshold(Input(1), "<", nan))


# -- parsed specs are shared ----------------------------------------------

class Unreadable:
    """A value that fails if anything hashes or converts it."""

    def __hash__(self):
        raise AssertionError("hashed")

    def __float__(self):
        raise AssertionError("converted")


class ReadLog(dict):
    """A params dict that logs the names looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = []

    def __contains__(self, name):
        self.read.append(name)
        return super().__contains__(name)

    def __getitem__(self, name):
        self.read.append(name)
        return super().__getitem__(name)


def test_parse_returns_one_shared_spec_per_text_and_values():
    text = "ind(min(x1, x2) > t)"
    spec = parse_system(text, {"t": 1.0})
    assert parse_system(text, {"t": 1.0}) is spec
    # 1, 1.0 and True build the same spec
    assert parse_system(text, {"t": 1}) is spec
    assert parse_system(text, {"t": True}) is spec
    assert parse_system(text, {"t": 2.0}) is not spec
    assert parse_system("min(x1, x2)") is parse_system("min(x1, x2)", {})


def test_signed_zero_levels_are_different_specs():
    text = "ind(x1 > t)"
    neg, pos = parse_system(text, {"t": -0.0}), parse_system(text, {"t": 0.0})
    assert neg is not pos
    assert render(neg.root) == "ind(x1>-0)"
    assert render(pos.root) == "ind(x1>0)"
    assert parse_system(text, {"t": 0}) is pos
    assert parse_system(text, {"t": -0.0}) is neg


def test_params_the_text_does_not_name_are_not_read():
    text = "ind(kofn(2; x1, x2, x3) > t)"
    spec = parse_system(text, {"t": 0.5})
    assert parse_system(text, {"t": 0.5, "meta": [1]}) is spec
    assert parse_system(text, {"t": 0.5, "meta": Unreadable()}) is spec
    log = ReadLog({"t": 0.5, "meta": 1, "x1": 2})
    assert parse_system(text, log) is spec
    assert set(log.read) == {"t"}
    # a name the parser reads as an operator, not as a level, may hold
    # anything, as before; that spec is parsed but not kept
    race = parse_system("cmp(x3 < min(x1, x2))", {"min": [1]})
    assert render(race.root) == "cmp(x3<min(x1,x2))"


def test_nan_levels_are_never_cached():
    _parse_cached.cache_clear()
    for _ in range(2):
        with pytest.raises(SystemValidationError,
                           match="threshold level is NaN"):
            parse_system("ind(x1 > t)", params={"t": float("nan")})
    # a NaN under a name the parser reads as an input still parses
    first = parse_system("cmp(x2 < x1)", {"x1": float("nan")})
    assert parse_system("cmp(x2 < x1)", {"x1": float("nan")}) is not first
    assert _parse_cached.cache_info().currsize == 0


def test_specs_are_read_only(six_tree):
    spec = parse_system("ind(min(max(x1, x2), x3) > t)", {"t": 1.0})
    for target in (spec, six_tree):
        with pytest.raises(TypeError):
            target.node_ids[1] = Input(9)
        with pytest.raises(TypeError):
            target.leaf_deps[1] = frozenset()
        with pytest.raises(TypeError):
            target.table[0] = None
        with pytest.raises(TypeError):
            target.class_levels[1] = 0.0
        for name in ("root", "m", "table", "node_ids", "leaf_deps",
                     "class_levels"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, name, None)
        assert not hasattr(target, "parent")
    assert dict(spec.node_ids) == {nid: node for nid, node, _ in spec.table}


# -- threshold classes ----------------------------------------------------

def test_class_map_of_tree6():
    # x1..x6, then max(x1,x2)=7, max(x3,x4)=8, sum(x5,x6)=9, min=10, ind=11:
    # the run from the ind stops at the leaves under the maxes and at the sum
    spec = parse_system(
        "ind(min(max(x1, x2), max(x3, x4), sum(x5, x6)) > t)", {"t": 1.5})
    assert dict(spec.class_levels) == dict.fromkeys([1, 2, 3, 4, 7, 8, 9, 10],
                                                    1.5)


def test_class_map_of_two_of_three(two_of_three):
    assert dict(two_of_three.class_levels) == dict.fromkeys([1, 2, 3, 4], 1.0)


def test_class_map_of_the_three_branch_system():
    # x1, x4, max=7, x2, x5, min=8, x3, x6, sum=9, min=10, ind=11
    spec = three_branch_system(2.0)
    want = dict.fromkeys([1, 2, 4, 5, 7, 8, 9, 10], 2.0)
    assert dict(spec.class_levels) == want
    # Z arguments may be infinite, but x3 + x6 adds one finite term to
    # them, which makes no NaN
    assert class_levels(spec.table, {4, 5, 6}) == want


def test_class_map_nests_and_stops_at_comparisons():
    # max(x2,x3)=7, ind=8, min=9, ind=10, cmp(x4<x5)=11, max=12, ind=13
    spec = parse_system("max(ind(min(x1, ind(max(x2, x3) > 2)) < 0.5), "
                        "ind(max(cmp(x4 < x5), x6) > 0))")
    assert dict(spec.class_levels) == {9: 0.5, 1: 0.5, 8: 0.5, 7: 2.0,
                                       2: 2.0, 3: 2.0, 12: 0.0, 11: 0.0,
                                       6: 0.0}


@pytest.mark.parametrize("text, unbounded, want", [
    # a sum of finite arguments may overflow but is never NaN
    ("ind(sum(x1, x2) > 0)", (), {3: 0.0}),
    # two arguments that may be infinite: inf + -inf
    ("ind(sum(x1, x2) > 0)", (1, 2), {}),
    ("ind(sum(x1, x2) > 0)", (2,), {3: 0.0}),
    # a partial sum of two finite terms may be infinite too
    ("ind(sum(x1, x2, x3) > 0)", (3,), {}),
    ("ind(sum(x1, x2, x3) > 0)", (1,), {4: 0.0}),
    ("ind(max(sum(sum(x1, x2), sum(x3, x4)), x5) > 0)", (), {}),
    ("ind(max(sum(sum(x1, x2), sum(x3, x4)), x5) < 0)", (), {}),
    # an indicator in between is 0 or 1 whatever lies below it
    ("ind(max(ind(sum(sum(x1, x2), sum(x3, x4)) > 0), x5) > 0.5)", (),
     {10: 0.5, 9: 0.5, 5: 0.5}),
])
def test_a_region_that_could_be_nan_is_left_out(text, unbounded, want):
    assert class_levels(parse_system(text).table, unbounded) == want


def test_leaf_dependencies(six_tree):
    deps = six_tree.leaf_deps
    assert deps[six_tree.root_id] == frozenset({1, 2, 3, 4, 5, 6})
    # the three first-level subtrees split the leaves
    inner = children_ids(six_tree, six_tree.root_id)[0]
    level1 = children_ids(six_tree, inner)
    sets = [deps[v] for v in level1]
    assert sorted(map(sorted, sets)) == [[1, 2], [3, 4], [5, 6]]
    assert leaf_dependencies(six_tree, six_tree.root_id) == frozenset({1, 2, 3, 4, 5, 6})
    with pytest.raises(SystemValidationError):
        leaf_dependencies(six_tree, 999)


def one_child_chain(depth, op=Min, leaf=1):
    node = Input(leaf)
    for _ in range(depth):
        node = op((node,))
    return node


def test_deep_node_chains_compare_hash_and_print():
    a, b = one_child_chain(5000), one_child_chain(5000)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != one_child_chain(5000, leaf=2)
    assert a != one_child_chain(4999)
    assert a != one_child_chain(5000, op=Max)
    assert repr(a) == "Min(children=(" * 5000 + "Input(index=1)" + ",))" * 5000


def test_node_equality_and_repr_follow_the_dataclass_fields():
    text = "kofn(2; min(x1,x2), ind(x3>1.5), cmp(x4<sum(x5)))"
    root = parse_system(text).root
    assert repr(root) == (
        "KOfN(k=2, children=(Min(children=(Input(index=1), Input(index=2))), "
        "Threshold(child=Input(index=3), op='>', level=1.5), "
        "Compare(left=Input(index=4), op='<', right=Sum(children=("
        "Input(index=5),)))))")
    assert root == parse_system(text).root
    for other in ("kofn(1; min(x1,x2), ind(x3>1.5), cmp(x4<sum(x5)))",
                  "kofn(2; max(x1,x2), ind(x3>1.5), cmp(x4<sum(x5)))",
                  "kofn(2; min(x2,x1), ind(x3>1.5), cmp(x4<sum(x5)))",
                  "kofn(2; min(x1,x2), ind(x3<1.5), cmp(x4<sum(x5)))",
                  "kofn(2; min(x1,x2), ind(x3>2.5), cmp(x4>sum(x5)))",
                  "kofn(2; min(x1,x2), ind(x3>1.5), cmp(sum(x5)<x4))"):
        assert root != parse_system(other).root
    # the same pre-order of nodes under different parents
    one, two = Input(1), Input(2)
    assert Min((Min((one,)), two)) != Min((Min((one, two)),))
    # a node object used twice is fine outside a spec
    leaf = Input(1)
    assert Min((leaf, leaf)) == Min((Input(1), Input(1)))
    assert repr(Min((leaf, leaf))) == \
        "Min(children=(Input(index=1), Input(index=1)))"


def test_parent_child_tables_consistent(six_tree):
    parent = parent_of(six_tree)
    for node, kids in ((v, children_ids(six_tree, v))
                       for v in six_tree.node_ids):
        for kid in kids:
            assert parent[kid] == node
    root = six_tree.root_id
    assert root not in parent
    assert sorted(parent) == sorted(set(six_tree.node_ids) - {root})


def test_table_is_post_order_with_the_root_last():
    spec = parse_system("min(max(x1,x2), max(x3,x4))")
    assert [(nid, type(node).__name__, kids) for nid, node, kids in spec.table] \
        == [(1, "Input", ()), (2, "Input", ()), (5, "Max", (1, 2)),
            (3, "Input", ()), (4, "Input", ()), (6, "Max", (3, 4)),
            (7, "Min", (5, 6))]
    assert spec.root_id == 7 and children_ids(spec, 7) == (5, 6)


def test_deep_chain_under_the_default_recursion_limit():
    """Nothing walks a spec by recursion, so depth is not limited by the
    interpreter's recursion limit."""
    depth = 5000
    assert sys.getrecursionlimit() < depth
    text = "ind(" + "max(" * depth + "kofn(2; x1, x2, x3)" + ")" * depth \
        + " > 1)"
    deep, shallow = parse_system(text), parse_system("ind(kofn(2; x1, x2, x3) > 1)")
    assert len(deep.table) == len(shallow.table) + depth
    assert render(deep.root) == text.replace(" ", "")
    X = np.random.default_rng(4).exponential(1.0, size=(64, 3))
    assert np.array_equal(evaluate_batch(deep, X), evaluate_batch(shallow, X))
    assert repr(deep).startswith("SystemSpec(ind(max(max(")


def test_evaluate_pure(two_of_three):
    x = [1.5, 0.5, 1.5]
    assert evaluate(two_of_three, x) == evaluate(two_of_three, x) == 1.0


@pytest.mark.parametrize("c", range(1, 7))
def test_kofn_batch_equals_column_sort(c):
    """The compare-exchange passes pick the same element as a sort, for
    every k, with ties among the children."""
    rng = np.random.default_rng(c)
    X = rng.integers(0, 4, size=(500, c)).astype(float)
    for k in range(1, c + 1):
        spec = parse_system(
            f"kofn({k}; {', '.join(f'x{i + 1}' for i in range(c))})")
        assert np.array_equal(evaluate_batch(spec, X),
                              np.sort(X, axis=1)[:, c - k])


def test_evaluate_batch_frees_its_input_without_the_cyclic_collector():
    """Large replication runs evaluate one value matrix per block; each must
    be freed when its call returns, not held by a reference cycle."""
    spec = parse_system("min(x1, max(x2, x3))")
    X = np.random.default_rng(0).random((8, 3))
    ref = weakref.ref(X)
    gc.disable()
    try:
        evaluate_batch(spec, X)
        del X
        assert ref() is None
    finally:
        gc.enable()
