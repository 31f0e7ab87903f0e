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

Repeated seeded estimates of one system on one sample set skip the gathers
and the evaluation.  When the sample set's rank grid (one axis per block,
in block order, over its perm(n, k) outcome ranks) has at most ``BLOCK``
cells, every block is tabulated and a realization is one cell of that
grid.  The sample set keeps one slot, the system of its last seeded
estimate; from the second seeded estimate of that system in a row the slot
also holds the system's rank table, its values over the whole grid, built
once with :func:`systems.evaluate_grid` and read-only (:func:`_rank_table`).
Each block of realizations then takes the very draws of the value route,
folds them into one flat rank index per realization and reads the values
with one ``take`` into a fresh array, so every byte stays the same.  A
first or one-shot estimate, a grid over the cap and an untabulated block
keep the value route.  Building a table of 27 to 4,096 cells took 30 to
70 us, one or two value-route estimates at r = 10, and it had paid for
itself by the fifth estimate that read it.  Criterion 2 of the
acceptance suite, 100,000 estimates at r = 10 on one (3, 3, 3) sample set,
ran in about 3.7 s before and 3.0 s with the table (2-core x86-64 VM).

The exhaustive routes (:func:`grid_values` and everything built on it)
evaluate the function with :func:`systems.evaluate_grid` on a grid with one
axis per block, of length n!/(n-k)! for k draws from n elements: each
argument is its column gathered through the block's ordered draws (the
column itself in a block of one argument), and only the nodes over every
block span the whole grid.  The values come out in index-vector
enumeration order, ``GRID_CHUNK`` to an array.

A threshold system, whose root ``ind`` reads its boundary nodes only
through their side of the level (:class:`systems.ClassLattice`), needs no
grid for its moments: :func:`exhaustive_moments` counts, per boundary node,
the cells of the node's own local grid above the level (a data leaf's grid
is its column) and walks those counts up to the root in Python ints, with
no lattice of classes (:func:`class_moments`, :func:`systems.count_walk`).
It takes that route when the local grids have no more cells than the
grid, and no block's arguments lie under two boundary nodes.
``estimate_theta(r=None)`` keeps the grid, whose values it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._streams import (BLOCK, Lane, _count, block_streams, distinct_codes,
                       distinct_outcomes, draw_distinct)
from .budget import check_budget
from .samples import SampleSet, _draw_table
from .systems import ClassLattice, SystemSpec, evaluate_batch, evaluate_grid

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
    """Values of r independent realizations, keyed by (seed, lane, block).

    Each call is a seeded estimate of ``spec`` on ``samples``: from the
    second call in a row with one system the values are read off the
    system's rank table (:func:`_rank_table`) where the grid has one.
    """
    check_arity(spec, samples)
    if r < 1:
        raise ValueError(f"need r >= 1 realizations, got {r}")
    table = _rank_table(spec, samples)
    values = np.empty(r, dtype=float)
    for start, stop, rng in block_streams(r, seed, lane):
        if table is None:
            values[start:stop] = evaluate_batch(
                spec, draw_values(samples, stop - start, rng).T)
        else:
            _read_rank_table(table, samples, rng, values[start:stop])
    return values


def check_arity(spec: SystemSpec, samples: SampleSet) -> None:
    """Raise ValueError unless ``samples`` bind the system's m arguments."""
    if samples.m != spec.m:
        raise ValueError(
            f"system takes {spec.m} arguments but samples bind {samples.m}")


def _rank_table(spec: SystemSpec, samples: SampleSet):
    """The rank table of ``spec`` on ``samples`` for a seeded estimate, or
    None where the estimate draws values and evaluates them.

    A table is the pair (values, strides): the system's read-only values
    over the rank grid, flat in C order, and per run of
    :attr:`SampleSet.draw_plan` the int64 strides of its blocks' axes.
    The sample set's slot ``_seeded`` holds the system of its last seeded
    estimate and, once built, that system's table.  A system other than
    the slot's takes the slot and gets None, so a one-shot estimate never
    builds a table; the next call with the same system builds it from the
    value tables of :attr:`SampleSet.draw_plan`.  A grid of more than
    ``BLOCK`` cells never has one, and leaves the slot alone.  The slot is
    replaced whole, a system with its own table, so threads sharing a
    sample set may build a table twice but never read another system's.
    """
    if samples.admissible_count() > BLOCK:
        return None
    held, table = samples._seeded
    if held is not spec:
        object.__setattr__(samples, "_seeded", (spec, None))
        return None
    if table is None:
        leaves, dims = [None] * samples.m, []
        for run in samples.draw_plan:
            for _, _, slots, by_rank, _ in run:
                for a, values in zip(slots, by_rank):
                    leaves[a] = (len(dims), values)
                dims.append(by_rank.shape[1])
        # at most BLOCK cells, so one chunk
        (grid,) = evaluate_grid(spec, leaves, dims)
        grid.flags.writeable = False
        steps = np.cumprod([1] + dims[:0:-1], dtype=np.int64)[::-1]
        bounds = np.cumsum([len(run) for run in samples.draw_plan])
        table = (grid, tuple(np.split(steps, bounds[:-1])))
        object.__setattr__(samples, "_seeded", (spec, table))
    return table


def _read_rank_table(table, samples: SampleSet, rng: np.random.Generator,
                     out: np.ndarray) -> None:
    """Write the values of ``len(out)`` realizations drawn from ``rng``
    into ``out``, read off a :func:`_rank_table`.

    The draws are those of :func:`draw_values`: per run of
    :attr:`SampleSet.draw_plan` one :func:`_streams.distinct_codes` call,
    whose slice j holds the outcome ranks of the run's block j.  They are
    folded by the grid's strides into one flat index per realization, and
    a cell of the grid holds the very float the value route computes for
    its argument vector, so both give the same bytes.
    """
    grid, strides = table
    rows, flat = len(out), None
    for run, steps in zip(samples.draw_plan, strides):
        n, k = run[0][:2]
        codes = distinct_codes(rng, n, k, len(run) * rows)
        part = steps @ codes.reshape(len(run), rows)
        flat = part if flat is None else np.add(flat, part, out=flat)
    grid.take(flat, out=out, mode="clip")


def grid_values(spec: SystemSpec, samples: SampleSet,
                budget: int | None = None):
    """Yield the realization values of every admissible index vector, in
    the order of :meth:`SampleSet.enumerate_index_vectors`, ``GRID_CHUNK``
    to an array.  The grid has one axis per block, over its ordered draws.
    The arrays may be read-only: for the system ``x1`` on a block of one
    argument, a view of its sample column."""
    check_budget(samples.admissible_count(), "index-vector enumeration",
                 budget)
    yield from evaluate_grid(spec, *_grid_leaves(samples, samples.blocks))


def _grid_leaves(samples: SampleSet, blocks):
    """The leaves and axis lengths of :func:`systems.evaluate_grid` for a
    grid with one axis per block of ``blocks``, over its ordered draws;
    the arguments of other blocks get None."""
    leaves, dims = [None] * samples.m, []
    for axis, b in enumerate(blocks):
        column = samples.columns[b.sample_index]
        dims.append(math.perm(b.size, b.draw_count))
        if b.draw_count == 1:  # the column is its own draw table
            leaves[b.args[0] - 1] = (axis, column)
            continue
        table = _draw_table(b.size, b.draw_count)
        for j, a in enumerate(b.args):
            leaves[a - 1] = (axis, column[table[:, j]])
    return leaves, dims


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
    """Exact mean and second moment over every admissible index vector:
    on the class counts where :func:`class_moments` takes it, else over
    the grid.  Both give the same bits, and the budget counts the cells of
    the route taken."""
    check_arity(spec, samples)
    found = class_moments(spec, samples, budget)
    if found is not None:
        return found[1]
    return chunk_moments(grid_values(spec, samples, budget))


def class_moments(spec: SystemSpec, samples: SampleSet, budget,
                  pairs: bool = False):
    """The threshold-class route of exact moments: the class counts of
    :func:`class_counts` and the :class:`ExhaustiveMoments`, after the
    budget check of the cells the route builds; None where the value grid
    (``pairs`` false) or the position tensor of :func:`pairs._pair_sums`
    (``pairs`` true) is the route.

    The route needs a :class:`ClassRoute`.  Its hit count
    sum_b phi(b) prod_v cnt_v(b_v) is one walk in Python ints
    (:meth:`systems.ClassLattice.hits`, no 2^B cells), and mu = mu2 = hits
    / count: the grid's sum of 0/1 values is that same integer, so the bits
    are the grid's.  For :func:`exhaustive_moments` it is taken when the
    nodes' local grids have no more cells than the grid (``"threshold-class
    lattice"``).  For the
    pair sums every argument needs a sample of its own and a data leaf as
    its boundary node; the route is taken when the 3^m cells of the class
    tensor of :func:`pairs._class_at_least_sums` are no more than the
    position tensor's prod n_i, and counts the 2 * 3^m cells of M and N,
    the 2^m joint injections and the sum n_i values compared with the
    level (``"threshold-class pair tensor"``).
    """
    route = class_route(spec, samples)
    if route is None:
        return None
    count = math.prod(route.sizes)
    if not pairs:
        cells = sum(route.sizes)
        if cells > count:
            return None
        what = "threshold-class lattice"
    elif (samples.singleton_blocks and route.lattice.boundary[-1] <= spec.m
          and 3 ** spec.m <= count):  # boundary ids up to m are leaves
        cells = 2 * 3 ** spec.m + 2 ** spec.m + sum(route.sizes)
        what = "threshold-class pair tensor"
    else:
        return None
    check_budget(cells, what, budget)
    counts = class_counts(spec, samples, route)
    mu = route.lattice.hits(counts) / count
    return counts, ExhaustiveMoments(mu=mu, mu2=mu, count=count)


@dataclass(frozen=True)
class ClassRoute:
    """The threshold-class lattice of a spec on a sample set: per boundary
    node, the blocks of its local grid, those whose arguments lie under
    the node, and the grid's cell count (its admissible draws)."""

    lattice: ClassLattice
    blocks: tuple
    sizes: tuple


def class_route(spec: SystemSpec, samples: SampleSet) -> ClassRoute | None:
    """The :class:`ClassRoute` of ``spec`` on ``samples``; None without a
    class lattice, or when a block's arguments lie under two boundary
    nodes, whose classes its draws without replacement couple."""
    lattice = spec.class_lattice
    if lattice is None:
        return None
    owner = lattice.owner
    local = [[] for _ in lattice.boundary]
    sizes = [1] * len(local)
    for b in samples.blocks:
        j = owner[b.args[0] - 1]
        for a in b.args[1:]:
            if owner[a - 1] != j:
                return None
        local[j].append(b)
        sizes[j] *= math.perm(b.size, len(b.args))
    return ClassRoute(lattice, tuple(local), tuple(sizes))


def class_counts(spec: SystemSpec, samples: SampleSet,
                 route: ClassRoute) -> list:
    """Per boundary node v of ``route``, the cells of its local grid at
    most and above the level, (N_v - c_v, c_v).  A data leaf's local grid
    is its column; any other node is evaluated over the grid of its own
    blocks and compared with the level, as the cascade does."""
    level = route.lattice.level
    counts = []
    for v, blocks, size in zip(route.lattice.boundary, route.blocks,
                               route.sizes):
        if v <= spec.m:  # a leaf on a sample of its own
            above = np.count_nonzero(samples.columns[blocks[0].sample_index]
                                     > level)
        else:
            leaves, dims = _grid_leaves(samples, blocks)
            above = sum(np.count_nonzero(chunk > level) for chunk
                        in evaluate_grid(spec, leaves, dims, node=v))
        counts.append((size - int(above), int(above)))
    return counts


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
