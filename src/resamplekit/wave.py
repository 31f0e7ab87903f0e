"""Hierarchical resampling: per-node samples built level by level.

Instead of evaluating the whole structure function per realization, each
internal node v keeps its own sample H_v of size n_v.  An element of H_v is
built by picking one element uniformly (with replacement across elements)
from each child's sample and applying the node's elementary operator.  Leaf
"samples" are the data columns.  The estimate is the mean of the root
sample, so the root size n_k plays the role of r.

Two distinct root elements may reuse sample elements anywhere down the
cascade.  The shared-leaf pattern omega (the set of leaf arguments whose
data element is common to both) has distribution

    P^v{omega} = prod_{child i} [ (1/n_i) delta(i, omega)
                                 + (1 - 1/n_i) P^i{omega intersect I0_i} ]

where I0_i is the set of leaves under child i, delta(i, omega) = 1 iff
I0_i is contained in omega (same pick shares everything below), and a leaf
has P{empty} = 1 (two distinct data elements share nothing).  The variance
of the root mean then assembles exactly like the flat case with r = n_k and
the pattern weights P^k{omega}.

A node that an ``ind`` reads only through its side of the level (the
threshold-class map ``SystemSpec.class_levels``) is read only through its
class u = [v > L].  Given its children's samples, the elements of such a
node are i.i.d., so its sample is known up to order by its count of u = 1,
Binomial(n_v, q) with q the node's reliability polynomial at its
children's shares (Barlow & Proschan 1975).  :func:`wave_estimate` draws
that count, one binomial per node, and builds no element there; an ``ind``
root's estimate is its count over n_k.  The vector cascade, whose N slots
repeat the data and so are not independent, keeps the class samples as one
byte per element, u, instead of an 8-byte value.

Every argument must have its own sample (blocks of size one); the cascade
draws children independently.  One cascade serves :func:`wave_estimate`
and ``partial.wave_estimate_vector_samples`` (node samples of N-vectors).
Every node size must be a positive integer; a missing or bad one raises
``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._streams import Lane, _count, block_streams
from .budget import check_budget
from .pairs import (OmegaPair, VarianceReport, _generator_layout,
                    _variance_report)
from .resampling import EstimateResult, check_arity
from .samples import SampleSet
from .systems import (KOfN, Max, Min, SystemSpec, Threshold, _node_values,
                      class_levels, count_rule, evaluate_grid)

__all__ = [
    "node_sizes", "default_node_sizes", "wave_estimate", "WavePropagation",
    "propagate_pair_probabilities", "hierarchical_variance",
]


def _require_singleton(samples: SampleSet):
    if not samples.singleton_blocks:
        raise ValueError(
            "hierarchical resampling needs one sample per argument "
            "(no shared blocks)")


def _size(sizes: dict, nid: int) -> int:
    """``sizes[nid]`` as an int: an integer or integral float above 0 and
    below 2**63, as numpy holds it."""
    if nid not in sizes:
        raise ValueError(f"no size given for node {nid}")
    n = sizes[nid]
    whole = (isinstance(n, (int, np.integer))
             or isinstance(n, (float, np.floating)) and n.is_integer())
    if isinstance(n, (bool, np.bool_)) or not whole or n < 1:
        raise ValueError(f"node {nid} size must be a positive integer, got {n}")
    if n >= 2 ** 63:
        raise ValueError(f"node {nid} size must be below 2**63, got {n}")
    return int(n)


def node_sizes(spec: SystemSpec, samples: SampleSet,
               intermediate: dict) -> dict[int, int]:
    """Full node-size map: leaf sizes from the data, internal from the caller.

    ``intermediate`` maps internal node ids (m+1 .. root) to their sample
    sizes n_v; every internal node must be covered.
    """
    _require_singleton(samples)
    sizes = {i: samples.sizes[i - 1] for i in range(1, spec.m + 1)}
    for nid, _, kids in spec.table:
        if kids:
            sizes[nid] = _size(intermediate, nid)
    return sizes


def default_node_sizes(spec: SystemSpec, samples: SampleSet) -> dict[int, int]:
    """Convenience map: every internal node inherits its children's minimum."""
    _require_singleton(samples)
    sizes = {i: samples.sizes[i - 1] for i in range(1, spec.m + 1)}
    for nid, _, kids in spec.table:
        if kids:
            sizes[nid] = min(sizes[c] for c in kids)
    return sizes


class _Cascade:
    """One run of the cascade over a spec's table: node sizes, which nodes
    are enumerated, and the samples and counts built so far.

    Arguments 1..m read the data, stored once and broadcast over ``slots``;
    arguments m+1.. are known distributions, drawn fresh as
    ``(rows,) + slots`` values wherever they are a child.  A node whose
    size is the product of its children's sizes, all of them data or
    enumerated, is enumerated: it takes every child combination once.

    A node in the threshold-class map (``spec.class_levels``; with Z
    arguments, which may be infinite, :func:`class_levels` with them
    unbounded) is read only through its class u = [v > L].  A run without
    ``slots`` keeps such nodes and every ``ind`` over one of them as their
    count of class 1 (of ones, for an ``ind`` outside the map), see
    :meth:`_count`; a run with slots as one byte per element: a data leaf is
    compared once, a Z draw per block, a ``min``, ``max`` or ``kofn`` of
    classes takes all, any or at least k of them, any other node compares
    its value, and the ``ind`` above reads u, or not u for ``<``.

    Every sampled node that keeps a sample holds a slice of one of two
    slabs, one of floats and one of classes, each of the sum of its nodes'
    n_v rows in post-order, so a run allocates its full-length memory once;
    a sampled root that is not counted comes back as a view of the float
    slab.
    """

    def __init__(self, spec: SystemSpec, samples: SampleSet, sizes: dict,
                 seed: int, lane: Lane, z_dists=(), slots: tuple = ()):
        self.spec, self.seed, self.lane = spec, seed, lane
        self.z_dists, self.slots = z_dists, slots
        self.m = m = samples.m
        self.levels = levels = (
            class_levels(spec.table, range(m + 1, spec.m + 1)) if z_dists
            else spec.class_levels)
        self.counted = set()  # nodes kept as counts
        if not slots:
            self.counted = set(levels) | {
                nid for nid, node, kids in spec.table
                if isinstance(node, Threshold) and kids[0] in levels}
        self.store: dict[int, np.ndarray] = {}
        self.tally: dict[int, int] = {}
        for i in range(1, m + 1):
            v = samples.values_for_arg(i)
            if i in self.counted:
                self.tally[i] = int(np.count_nonzero(v > levels[i]))
                continue
            if i in levels:
                v = v > levels[i]
            self.store[i] = np.broadcast_to(
                v.reshape(v.shape + (1,) * len(slots)), v.shape + slots)
        self.n_of = n_of = {i: samples.sizes[i - 1] for i in range(1, m + 1)}
        self.exhaustive = exhaustive = dict.fromkeys(n_of, True)
        self.offsets: dict[int, int] = {}
        totals = {float: 0, bool: 0}  # rows of each slab
        for nid, _, kids in spec.table:
            if kids:
                n_of[nid] = n_v = _size(sizes, nid)
                exhaustive[nid] = n_v == math.prod(
                    n_of[c] if exhaustive.get(c) else 0 for c in kids)
                if not (exhaustive[nid] or nid in self.counted):
                    kind = bool if nid in levels else float
                    self.offsets[nid], totals[kind] = \
                        totals[kind], totals[kind] + n_v
        self.slabs = {kind: np.empty((total,) + slots, dtype=kind)
                      for kind, total in totals.items()}

    def run(self, keep_root: bool = False):
        """Build every internal node bottom-up; return the root's count
        (None unless counted) and its sample (None for a counted root
        unless ``keep_root``)."""
        root = self.spec.root_id
        for nid, node, kids in self.spec.table:
            if not kids:
                continue
            if nid in self.counted:
                # an ind outside the map is read as values by its parent
                read = nid not in self.levels and (nid != root or keep_root)
                self.tally[nid] = self._count(nid, node, kids, read)
                continue
            kind = bool if nid in self.levels else float
            if self.exhaustive[nid]:
                ((_, _, values),) = self._blocks(nid, node, kids)
                self.store[nid] = np.asarray(values, dtype=kind)
                continue
            at = self.offsets[nid]
            out = self.slabs[kind][at:at + self.n_of[nid]]
            for start, stop, values in self._blocks(nid, node, kids):
                out[start:stop] = values
            self.store[nid] = out
        return self.tally.get(root), self.store.get(root)

    def _blocks(self, nid: int, node, kids):
        """Node ``nid``'s values, or classes if it has a level, as
        ``(start, stop, values)``: one piece for an enumerated node, else
        one per block.  Node v's draws come from the (seed, lane, v) block
        streams in child order: a Z sample, or one pick per row from a
        child's sample.  A run of consecutive non-Z children of one sample
        size takes its picks from one ``integers`` call, cut into one slice
        per child: bounded integers carry nothing from one call to the next
        but the generator state, so these are the numbers of one call per
        child."""
        store, n_of, m = self.store, self.n_of, self.m
        level = self.levels.get(nid)
        classes_in = kids[0] in self.levels
        n_v = n_of[nid]
        if self.exhaustive[nid]:
            picks = np.unravel_index(np.arange(n_v), [n_of[c] for c in kids])
            cols = [store[c][idx] for c, idx in zip(kids, picks)]
            yield 0, n_v, _node_values(node, cols, classes_in, level)
            return
        runs: list[tuple[int | None, list[int]]] = []  # (size, kids) or Z
        for c in kids:
            if m < c <= self.spec.m:
                runs.append((None, [c]))
            elif runs and runs[-1][0] == n_of[c]:
                runs[-1][1].append(c)
            else:
                runs.append((n_of[c], [c]))
        for start, stop, rng in block_streams(n_v, self.seed, self.lane, nid):
            rows = stop - start
            cols = []
            for n, run in runs:
                if n is None:
                    c = run[0]
                    z = self.z_dists[c - m - 1].sample(rng,
                                                       (rows,) + self.slots)
                    cols.append(z if c not in self.levels
                                else z > self.levels[c])
                else:
                    cols += _picked(store, run, rng.integers(
                        0, n, size=len(run) * rows), rows)
            yield start, stop, _node_values(node, cols, classes_in, level)

    def _count(self, nid: int, node, kids, read: bool) -> int:
        """A counted node's count of class 1, or of ones for an ``ind``
        outside the map.

        Given its children's samples a sampled node's elements are i.i.d.,
        so its count is Binomial(n_v, q) for the share q that one element
        has (Barlow & Proschan 1975), exact as a ratio of integers:
        - a ``min``, ``max`` or ``kofn`` has :func:`count_rule` on its
          children's counts;
        - an ``ind`` has its child's share above the level, or at most it
          for ``<``;
        - a ``sum`` or ``cmp`` of data leaves whose grid has at most n_v
          cells has its grid's share above the level, by
          :func:`evaluate_grid`.
        An enumerated node takes the share's numerator, its exact count, and
        draws nothing.  Any other node draws its elements from its
        children's samples, as :meth:`_blocks`, and counts their classes.

        The draw is the first of the stream (seed, lane, v, 0); an ``ind``
        that is ``read`` as values then takes a uniform arrangement of its
        count from the same stream, as ``store[v]``.  An ``ind`` in the map
        has the class [1 > L] where it is 1 and [0 > L] where 0.
        """
        tally, n_of, levels = self.tally, self.n_of, self.levels
        n_v = n_of[nid]
        ones = isinstance(node, Threshold) and kids[0] in levels
        if isinstance(node, (Min, Max, KOfN)):
            g, cells = count_rule(node, [(n_of[c] - tally[c], n_of[c])
                                         for c in kids])
            share = cells - g, cells
        elif ones:
            c, n = tally[kids[0]], n_of[kids[0]]
            share = c if node.op == ">" else n - c, n
        else:
            dims = [n_of[c] for c in kids]
            if any(c > self.m for c in kids) or math.prod(dims) > n_v:
                return sum(int(np.count_nonzero(values))
                           for _, _, values in self._blocks(nid, node, kids))
            leaves = [None] * self.spec.m
            for axis, c in enumerate(kids):
                leaves[c - 1] = (axis, self.store[c])
            share = sum(int(np.count_nonzero(v > levels[nid])) for v in
                        evaluate_grid(self.spec, leaves, dims, node=nid)), \
                math.prod(dims)
        count = share[0]
        if read or not self.exhaustive[nid]:
            for _, _, rng in block_streams(1, self.seed, self.lane, nid):
                if not self.exhaustive[nid]:
                    count = int(rng.binomial(n_v, share[0] / share[1]))
                if read:
                    self.store[nid] = _arranged(count, n_v, rng)
        if ones and nid in levels:
            level = levels[nid]
            count = count * (1 > level) + (n_v - count) * (0 > level)
        return count


def _arranged(count: int, n: int, rng) -> np.ndarray:
    """``count`` ones and ``n - count`` zeros in a uniformly random order."""
    values = np.zeros(n)
    values[:count] = 1.0
    rng.shuffle(values)
    return values


def _picked(store: dict, run: list, picks: np.ndarray, rows: int) -> list:
    """The rows of each child in ``run`` at its slice of ``picks``; the
    picks are freed on return, before the node's values are made."""
    return [store[c].take(picks[j * rows:(j + 1) * rows], axis=0)
            for j, c in enumerate(run)]


def wave_estimate(spec: SystemSpec, samples: SampleSet, sizes: dict,
                  seed: int, keep_values: bool = False) -> EstimateResult:
    """Run the cascade once and average the root sample.

    A node whose requested size equals the product of its children's sizes
    (all of them exhaustively built, as leaves are) enumerates every child
    combination once instead of sampling, so a tree sized to the full
    enumeration counts reproduces the exhaustive mean exactly.

    Inside the threshold-class map the cascade draws counts, not elements
    (see :class:`_Cascade`).  An ``ind`` root is then its count c of ones
    out of n: the estimate is c / n and the variance c (n - c) / (n (n - 1)),
    each rounded once; ``keep_values`` adds a uniform arrangement of the
    c ones and changes neither.

    Parameters
    ----------
    sizes : dict
        Node id -> sample size for every internal node, each a positive
        integer (see :func:`node_sizes`); leaf sizes come from the data.
    seed : int
        Run seed; node v's draws are keyed by (seed, wave-lane, v, block).
    """
    _require_singleton(samples)
    check_arity(spec, samples)
    count, root = _Cascade(spec, samples, sizes, seed, Lane.WAVE).run(
        keep_values)
    if count is None:
        # a kept root must not pin the cascade's slab
        return EstimateResult.from_values(root.copy() if keep_values
                                          else root, seed, keep_values)
    n = _size(sizes, spec.root_id)
    return EstimateResult(
        estimate=count / n, realizations=n, seed=seed,
        empirical_variance=count * (n - count) / (n * (n - 1)) if n > 1
        else 0.0, values=root if keep_values else None)


@dataclass(frozen=True)
class WavePropagation:
    """Per-node shared-leaf pattern distributions.

    ``tables[v]`` maps frozensets of leaf arguments to probabilities (the
    distribution of the pattern between two distinct elements of H_v);
    ``arm_counts[v]`` is 2^(number of children), the count of reuse
    combinations over the node's own arms.
    """

    tables: dict
    arm_counts: dict
    root_id: int

    @property
    def root_table(self) -> dict:
        return self.tables[self.root_id]

    def delta(self, node_leaves: frozenset, omega: frozenset) -> bool:
        """Same-pick indicator: reusing a child element shares all its leaves."""
        return node_leaves <= omega


def propagate_pair_probabilities(spec: SystemSpec, sizes: dict,
                                 budget: int | None = None) -> WavePropagation:
    """Bottom-up pattern distributions for every internal node.

    ``sizes`` must give n_i for every node that appears as a child (all but
    the root; extra entries are ignored).  Only patterns with positive
    probability are stored.
    """
    tables: dict[int, dict] = {}
    arm_counts: dict[int, int] = {}
    for i in range(1, spec.m + 1):
        tables[i] = {frozenset(): 1.0}
    for nid, _, kids in spec.table:
        if not kids:
            continue
        arm_counts[nid] = 2 ** len(kids)
        combined = {frozenset(): 1.0}
        for c in kids:
            n_c = _size(sizes, c)
            leaves_c = spec.leaf_deps[c]
            factor: dict[frozenset, float] = {}
            for s, p in tables[c].items():
                factor[s] = factor.get(s, 0.0) + (1.0 - 1.0 / n_c) * p
            factor[leaves_c] = factor.get(leaves_c, 0.0) + 1.0 / n_c
            nxt: dict[frozenset, float] = {}
            check_budget(len(combined) * len(factor),
                         "pattern propagation state space", budget)
            for s1, p1 in combined.items():
                for s2, p2 in factor.items():
                    key = s1 | s2
                    nxt[key] = nxt.get(key, 0.0) + p1 * p2
            combined = nxt
        tables[nid] = {s: p for s, p in combined.items() if p > 0.0}
    return WavePropagation(tables=tables, arm_counts=arm_counts,
                           root_id=spec.root_id)


def hierarchical_variance(spec: SystemSpec, source, sizes: dict, *,
                          seed: int = 0, mc_draws: int = 100_000,
                          budget: int | None = None) -> VarianceReport:
    """Exact variance of the cascade estimate (root-sample mean).

    ``source`` is a SampleSet (data-conditional) or a list of per-argument
    KnownDistribution (generator mode); ``sizes`` the full node-size map
    including the root.  On a SampleSet each leaf's entry must equal its
    sample's size (as in :func:`node_sizes`), else ValueError.  ``mc_draws``
    (generator mode, a law without finite support) is checked as in
    :func:`resampling_variance`.
    """
    mc_draws = _count(mc_draws, "mc_draws", 2)
    r = _size(sizes, spec.root_id)
    prop = propagate_pair_probabilities(spec, sizes, budget)
    table = sorted(prop.root_table.items(),
                   key=lambda kv: (len(kv[0]), sorted(kv[0])))
    if isinstance(source, SampleSet):
        _require_singleton(source)
        for i, n in enumerate(source.sizes, start=1):
            if _size(sizes, i) != n:
                raise ValueError(f"node {i} size must be its sample's size "
                                 f"{n}, got {sizes[i]}")
        layout = source.layout
    else:
        source = list(source)
        layout = _generator_layout(spec, source, None)
    return _variance_report(spec, source, layout,
                            [(OmegaPair(s), p) for s, p in table], r, seed,
                            mc_draws, budget)
