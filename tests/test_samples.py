import math

import numpy as np
import pytest

from resamplekit import BudgetExceededError, InfeasibleLayoutError, LayoutError, SampleSet
from resamplekit.budget import DEFAULT_BUDGET, enumeration_budget
from resamplekit.samples import BlockLayout

from helpers import block_of_arg


def test_basic_construction():
    s = SampleSet.from_samples([("a", [10.0, 20.0]), ("b", [1.0, 2.0, 3.0])])
    assert s.m == 2
    assert s.sizes == (2, 3)
    assert s.singleton_blocks
    np.testing.assert_array_equal(s.values_for_arg(1), [10.0, 20.0])
    assert s.blocks[block_of_arg(s.layout, 2)].size == 3


def test_enumerate_singleton_vectors():
    s = SampleSet.from_samples([("a", [10.0, 20.0]), ("b", [1.0, 2.0, 3.0])])
    vectors = list(s.enumerate_index_vectors())
    assert len(vectors) == s.admissible_count() == 6
    assert len(set(vectors)) == 6
    assert all(0 <= i < 2 and 0 <= j < 3 for i, j in vectors)


def test_values_matrix_gathers():
    s = SampleSet.from_samples([("a", [10.0, 20.0]), ("b", [1.0, 2.0, 3.0])])
    got = s.values_matrix(np.array([[0, 2], [1, 0]]))
    np.testing.assert_array_equal(got, [[10.0, 3.0], [20.0, 1.0]])


def test_shared_block_binding():
    s = SampleSet.from_samples([("p", [5.0, 6.0, 7.0]), ("q", [1.0])],
                               blocks={1: "p", 2: "p", 3: "q"})
    assert s.m == 3
    assert s.sizes == (3, 3, 1)
    assert not s.singleton_blocks
    assert block_of_arg(s.layout, 1) == block_of_arg(s.layout, 2) == 0
    assert block_of_arg(s.layout, 3) == 1
    # within-block indices are distinct: falling factorial 3*2 times 1
    vectors = list(s.enumerate_index_vectors())
    assert len(vectors) == s.admissible_count() == 6
    assert all(v[0] != v[1] for v in vectors)


def test_layout_views():
    s = SampleSet.from_samples([("p", [5.0, 6.0, 7.0]), ("q", [1.0])],
                               blocks={1: "p", 2: "p", 3: "q"})
    layout = s.layout
    assert layout.block_args == ((1, 2), (3,))
    assert layout.block_sizes == (3, 1)
    assert layout.m == 3
    assert layout.sizes == (3, 3, 1)


def test_layout_validation():
    with pytest.raises(LayoutError):
        BlockLayout(block_args=((1, 3),), block_sizes=(4,))  # not a partition of 1..m
    with pytest.raises(LayoutError):
        BlockLayout(block_args=((1,), (2,)), block_sizes=(4,))  # size count mismatch


@pytest.mark.parametrize("samples, blocks", [
    ([("a", [1.0]), ("a", [2.0])], None),              # duplicate names
    ([("a", [1.0]), ("b", [2.0])], {1: "a"}),          # sample b never bound
    ([("a", [1.0])], {1: "zzz"}),                      # unknown sample name
    ([("a", [])], None),                               # empty sample
    ([("a", [1.0, np.nan])], None),                    # non-finite value
])
def test_construction_rejects(samples, blocks):
    with pytest.raises(LayoutError):
        SampleSet.from_samples(samples, blocks=blocks)


def test_block_larger_than_sample():
    with pytest.raises(InfeasibleLayoutError):
        SampleSet.from_samples([("p", [5.0])], blocks={1: "p", 2: "p"})


def test_from_json():
    s = SampleSet.from_json({"a": [1.0, 2.0], "b": [3.0]})
    assert s.names == ("a", "b")
    assert s.sizes == (2, 1)


def test_from_csv_unequal_columns(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("a,b\n1.0,4.0\n2.0,\n3.0,\n")
    s = SampleSet.from_csv(path)
    assert s.sizes == (3, 1)
    np.testing.assert_array_equal(s.values_for_arg(1), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(s.values_for_arg(2), [4.0])


def test_columns_immutable():
    s = SampleSet.from_samples([("a", [1.0, 2.0])])
    with pytest.raises(ValueError):
        s.columns[0][0] = 9.0


# -- enumeration budget ---------------------------------------------------

def test_budget_default_and_override(monkeypatch):
    monkeypatch.delenv("RESAMPLEKIT_BUDGET", raising=False)
    assert enumeration_budget() == DEFAULT_BUDGET == 10_000_000
    assert enumeration_budget(50) == 50
    monkeypatch.setenv("RESAMPLEKIT_BUDGET", "123")
    assert enumeration_budget() == 123
    monkeypatch.setenv("RESAMPLEKIT_BUDGET", "nope")
    with pytest.raises(ValueError):
        enumeration_budget()


@pytest.mark.parametrize("bad", [0, -5])
def test_non_positive_budget_is_rejected_from_either_source(monkeypatch, bad):
    """A non-positive budget is an error whether it is passed or set in
    the environment, not a budget every enumeration exceeds."""
    monkeypatch.delenv("RESAMPLEKIT_BUDGET", raising=False)
    with pytest.raises(ValueError, match=f"budget must be positive, got {bad}"):
        enumeration_budget(bad)
    with pytest.raises(ValueError, match="budget must be positive"):
        list(SampleSet.from_samples([("a", [1.0])]).enumerate_index_vectors(
            budget=bad))
    monkeypatch.setenv("RESAMPLEKIT_BUDGET", str(bad))
    with pytest.raises(ValueError,
                       match=f"RESAMPLEKIT_BUDGET must be positive, got {bad}"):
        enumeration_budget()


@pytest.mark.parametrize("bad", [1.5, 2.0, True, np.True_, "5"])
def test_non_integer_budget_override_is_a_type_error(monkeypatch, bad):
    """A float or bool override was truncated to a budget of 1 (or 2)."""
    monkeypatch.delenv("RESAMPLEKIT_BUDGET", raising=False)
    with pytest.raises(TypeError, match="budget must be an integer"):
        enumeration_budget(bad)
    assert enumeration_budget(np.int64(7)) == 7


def test_enumeration_respects_budget():
    s = SampleSet.from_samples([("a", np.arange(10.0)), ("b", np.arange(10.0))])
    with pytest.raises(BudgetExceededError) as err:
        list(s.enumerate_index_vectors(budget=99))
    assert err.value.needed == 100
    assert err.value.budget == 99
    assert math.prod(s.sizes) == 100
