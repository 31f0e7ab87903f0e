"""Plain resampling of a structure function over fixed samples.

One realization draws an admissible index vector -- for each block, ordered
positions without replacement from the backing sample -- and evaluates the
structure function on the selected values.  The estimate averages ``r``
realizations.  Conditional on the data the estimate is unbiased for the
exhaustive mean over all admissible vectors, which :func:`exhaustive_theta`
computes directly.

A seeded run draws values, not index vectors: :func:`draw_values` takes
each block's codes from :func:`_streams.distinct_codes`, exactly the draws
:func:`draw_index_batch` takes, in the same order (one call for a run of
tabulated blocks with equal outcome counts), and maps them through the
block's cached value table (:attr:`SampleSet.draw_plan`) or its
Fisher-Yates positions straight into an (m, rows) argument matrix.
:func:`systems.evaluate_batch` takes its transpose, so the structure
function reads each argument as one contiguous row.  The estimate and its
variance come from :meth:`EstimateResult.from_values`.

The exhaustive routes (:func:`grid_values` and everything built on it)
evaluate the function with :func:`systems.evaluate_grid` on a grid with one
axis per block, of length n!/(n-k)! for k draws from n elements: each
argument is its column gathered through the block's ordered draws (the
column itself in a block of one argument), and only the nodes over every
block span the whole grid.  The values come out in index-vector
enumeration order, ``GRID_CHUNK`` to an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._streams import (Lane, _count, block_streams, distinct_codes,
                       distinct_outcomes, draw_distinct)
from .budget import check_budget
from .samples import SampleSet, ordered_draws
from .systems import SystemSpec, evaluate_batch, evaluate_grid

__all__ = [
    "ResampleIndexVector", "EstimateResult", "draw_resample",
    "draw_index_batch", "draw_values", "estimate_theta", "exhaustive_moments",
    "exhaustive_theta", "grid_values",
]

@dataclass(frozen=True)
class ResampleIndexVector:
    """0-based positions into each argument's backing sample (length m)."""

    indices: tuple[int, ...]

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class EstimateResult:
    """Resampling estimate plus bookkeeping.

    Attributes
    ----------
    estimate : float
        Mean of the realization values.
    realizations : int
        Number of realizations r.
    seed : int
        Run seed the realizations were keyed by.
    empirical_variance : float
        Sample variance (ddof=1) of the realization values; 0 when r = 1.
    values : numpy.ndarray or None
        Per-realization values when retained.
    """

    estimate: float
    realizations: int
    seed: int
    empirical_variance: float
    values: np.ndarray | None = None

    @classmethod
    def from_values(cls, values: np.ndarray, seed: int | None,
                    keep_values: bool = False) -> "EstimateResult":
        """The estimate of a non-empty float array of realization values.

        Two ``np.add.reduce`` passes, the sum over n and then the squared
        deviations from that mean over n - 1, are the steps of
        ``values.mean()`` and ``np.var(values, ddof=1)``, so the bits are
        theirs.  The variance pass runs in place: unless ``keep_values`` is
        set, a writeable C-contiguous float64 ``values`` is overwritten by
        its squared deviations, so no second array of length n is made.
        Any other array is left as it was and the pass runs on a copy.
        """
        n = len(values)
        mean = np.add.reduce(values) / n
        var = 0.0
        if n > 1:
            in_place = (not keep_values and values.dtype == np.float64
                        and values.flags.writeable
                        and values.flags.c_contiguous)
            dev = np.subtract(values, mean, out=values if in_place else None)
            var = np.add.reduce(np.multiply(dev, dev, out=dev)) / (n - 1)
        return cls(estimate=float(mean), realizations=n, seed=seed,
                   empirical_variance=float(var),
                   values=values if keep_values else None)

    @property
    def standard_error(self) -> float:
        """SE of the estimate: sqrt(empirical variance / r)."""
        return math.sqrt(self.empirical_variance / self.realizations)


def draw_resample(samples: SampleSet, rng: np.random.Generator) -> ResampleIndexVector:
    """Draw one admissible index vector with the caller's generator."""
    return ResampleIndexVector(
        tuple(int(j) for j in draw_index_batch(samples, 1, rng)[0]))


def draw_index_batch(samples: SampleSet, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` admissible index vectors; returns (count, m) ints.

    Each block takes its draws from :func:`draw_distinct`, in block order.
    """
    out = np.empty((count, samples.m), dtype=np.intp)
    for b in samples.blocks:
        picked = draw_distinct(rng, b.size, b.draw_count, count)
        for pos, a in enumerate(b.args):
            out[:, a - 1] = picked[:, pos]
    return out


def draw_values(samples: SampleSet, rows: int,
                rng: np.random.Generator) -> np.ndarray:
    """Draw ``rows`` admissible argument vectors; returns their values as an
    (m, rows) float array, row a - 1 for argument a.

    Takes the draws of :func:`draw_index_batch` from ``rng``, so the result
    equals ``samples.values_matrix(draw_index_batch(samples, rows, rng)).T``;
    a tabulated block reads its values by outcome rank from
    :attr:`SampleSet.draw_plan` without forming positions.  The ranks of a
    run of tabulated blocks with equal perm(n, k) come from one
    ``distinct_codes`` call of ``len(run) * rows`` rows, which are the same
    numbers as a call per block: numpy's bounded integers carry nothing
    from one call to the next but the generator's state.
    """
    out = np.empty((samples.m, rows))
    # codes and positions are in range by construction, so "clip" never
    # clips; it only spares take the buffered copy "raise" makes with out=
    for run in samples.draw_plan:
        n, k = run[0][:2]
        codes = distinct_codes(rng, n, k, len(run) * rows)
        for j, (_, _, slots, table, column) in enumerate(run):
            if table is not None:
                ranks = codes[j * rows:(j + 1) * rows]
                for a, by_rank in zip(slots, table):
                    by_rank.take(ranks, out=out[a], mode="clip")
            else:
                # a Fisher-Yates block is a run alone
                for a, picked in zip(slots, distinct_outcomes(n, k, codes).T):
                    column.take(picked, out=out[a], mode="clip")
    return out


def realization_values(spec: SystemSpec, samples: SampleSet, r: int, seed: int,
                       lane: int = Lane.SIMPLE_ESTIMATE) -> np.ndarray:
    """Values of r independent realizations, keyed by (seed, lane, block)."""
    if samples.m != spec.m:
        raise ValueError(
            f"system takes {spec.m} arguments but samples bind {samples.m}")
    if r < 1:
        raise ValueError(f"need r >= 1 realizations, got {r}")
    values = np.empty(r, dtype=float)
    for start, stop, rng in block_streams(r, seed, lane):
        values[start:stop] = evaluate_batch(
            spec, draw_values(samples, stop - start, rng).T)
    return values


def grid_values(spec: SystemSpec, samples: SampleSet,
                budget: int | None = None):
    """Yield the realization values of every admissible index vector, in
    the order of :meth:`SampleSet.enumerate_index_vectors`, ``GRID_CHUNK``
    to an array.  The grid has one axis per block, over its ordered draws.
    The arrays may be read-only: for the system ``x1`` on a block of one
    argument, a view of its sample column."""
    check_budget(samples.admissible_count(), "index-vector enumeration",
                 budget)
    leaves, dims = [None] * samples.m, []
    for axis, b in enumerate(samples.blocks):
        column = samples.columns[b.sample_index]
        dims.append(math.perm(b.size, b.draw_count))
        if b.draw_count == 1:  # the column is its own draw table
            leaves[b.args[0] - 1] = (axis, column)
            continue
        table = ordered_draws(b.size, b.draw_count)
        for j, a in enumerate(b.args):
            leaves[a - 1] = (axis, column[table[:, j]])
    yield from evaluate_grid(spec, leaves, dims)


def estimate_theta(spec: SystemSpec, samples: SampleSet, r: int | None,
                   seed: int | None = None,
                   keep_values: bool = False) -> EstimateResult:
    """Average the structure function over ``r`` resampled argument vectors.

    Deterministic in ``seed`` and independent of how work is scheduled.
    ``r=None`` enumerates every admissible index vector once instead of
    sampling (no seed needed); the result then equals the exhaustive mean.
    Any other ``r`` must be an integer, not a bool (TypeError), of at least
    1 (ValueError).
    """
    if r is None:
        values = np.concatenate(list(grid_values(spec, samples)))
    else:
        r = _count(r, "r")
        if seed is None:
            raise ValueError("a seed is required when sampling (r is not None)")
        values = realization_values(spec, samples, r, seed)
    return EstimateResult.from_values(values, seed, keep_values)


@dataclass(frozen=True)
class ExhaustiveMoments:
    """First two moments of the realization value over all admissible vectors."""

    mu: float
    mu2: float
    count: int


def exhaustive_moments(spec: SystemSpec, samples: SampleSet,
                       budget: int | None = None) -> ExhaustiveMoments:
    """Exact mean and second moment over every admissible index vector."""
    if samples.m != spec.m:
        raise ValueError(
            f"system takes {spec.m} arguments but samples bind {samples.m}")
    return chunk_moments(grid_values(spec, samples, budget))


def chunk_moments(chunks) -> ExhaustiveMoments:
    """Mean and second moment of value chunks, summed chunk by chunk."""
    s1 = 0.0
    s2 = 0.0
    total = 0
    for vals in chunks:
        s1 += float(vals.sum())
        s2 += float(np.square(vals).sum())
        total += len(vals)
    return ExhaustiveMoments(mu=s1 / total, mu2=s2 / total, count=total)


def exhaustive_theta(spec: SystemSpec, samples: SampleSet,
                     budget: int | None = None) -> float:
    """Exact value the resampling estimate is unbiased for, given the data."""
    return exhaustive_moments(spec, samples, budget).mu
