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
threshold-class map ``SystemSpec.class_levels``) keeps its sample as one
byte per element, u = [v > L], instead of an 8-byte value.

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
from .systems import SystemSpec, _node_values, class_levels

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
    """``sizes[nid]`` as an int: an integer or integral float above 0."""
    if nid not in sizes:
        raise ValueError(f"no size given for node {nid}")
    n = sizes[nid]
    whole = (isinstance(n, (int, np.integer))
             or isinstance(n, (float, np.floating)) and n.is_integer())
    if isinstance(n, (bool, np.bool_)) or not whole or n < 1:
        raise ValueError(f"node {nid} size must be a positive integer, got {n}")
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


def _cascade(spec: SystemSpec, samples: SampleSet, sizes: dict, seed: int,
             lane: Lane, z_dists=(), slots: tuple = ()) -> np.ndarray:
    """Build every internal node's sample bottom-up; return the root's.

    Arguments 1..m read the data, stored once and broadcast over ``slots``;
    arguments m+1.. are known distributions, drawn fresh as
    ``(rows,) + slots`` values wherever they are a child.  Node v's draws
    come from the (seed, lane, v) block streams in child order: a Z sample,
    or one pick per row from a child's sample.  A run of consecutive non-Z
    children of one sample size takes its picks from one ``integers`` call,
    cut into one slice per child: bounded integers carry nothing from one
    call to the next but the generator state, so these are the numbers of
    one call per child.  A node whose size is the product of its children's
    sizes, all of them data or enumerated, takes every child combination
    once and draws nothing.

    A node in the threshold-class map (``spec.class_levels``; with Z
    arguments, which may be infinite, :func:`class_levels` with them
    unbounded) keeps only its class u = [v > L], one byte per element: a
    data leaf is compared once, a Z draw per block, a ``min``, ``max`` or
    ``kofn`` of classes takes all, any or at least k of them, and any other
    node compares its value.  The ``ind`` above reads u, or not u for ``<``.

    Every sampled node's sample is a slice of one of two slabs, one of
    floats and one of classes, each of the sum of its nodes' n_v rows in
    post-order, so a call allocates its full-length memory once; a sampled
    root (never a class node) comes back as a view of the float slab.
    """
    m = samples.m
    levels = (class_levels(spec.table, range(m + 1, spec.m + 1)) if z_dists
              else spec.class_levels)
    store: dict[int, np.ndarray] = {}
    for i in range(1, m + 1):
        v = samples.values_for_arg(i)
        if i in levels:
            v = v > levels[i]
        store[i] = np.broadcast_to(v.reshape(v.shape + (1,) * len(slots)),
                                   v.shape + slots)
    n_of = {i: len(v) for i, v in store.items()}
    exhaustive = dict.fromkeys(store, True)
    offsets: dict[int, int] = {}
    totals = {float: 0, bool: 0}  # rows of each slab
    for nid, _, kids in spec.table:
        if kids:
            n_of[nid] = n_v = _size(sizes, nid)
            exhaustive[nid] = n_v == math.prod(
                n_of[c] if exhaustive.get(c) else 0 for c in kids)
            if not exhaustive[nid]:
                kind = bool if nid in levels else float
                offsets[nid], totals[kind] = totals[kind], totals[kind] + n_v
    slabs = {kind: np.empty((total,) + slots, dtype=kind)
             for kind, total in totals.items()}
    for nid, node, kids in spec.table:
        if not kids:
            continue
        n_v = n_of[nid]
        level = levels.get(nid)
        kind = float if level is None else bool
        classes_in = kids[0] in levels
        if exhaustive[nid]:
            picks = np.unravel_index(np.arange(n_v), [n_of[c] for c in kids])
            cols = [store[c][idx] for c, idx in zip(kids, picks)]
            store[nid] = np.asarray(
                _node_values(node, cols, classes_in, level), dtype=kind)
            continue
        runs: list[tuple[int | None, list[int]]] = []  # (size, kids) or Z
        for c in kids:
            if m < c <= spec.m:
                runs.append((None, [c]))
            elif runs and runs[-1][0] == n_of[c]:
                runs[-1][1].append(c)
            else:
                runs.append((n_of[c], [c]))
        out = slabs[kind][offsets[nid]:offsets[nid] + n_v]
        for start, stop, rng in block_streams(n_v, seed, lane, nid):
            rows = stop - start
            cols = []
            for n, run in runs:
                if n is None:
                    c = run[0]
                    z = z_dists[c - m - 1].sample(rng, (rows,) + slots)
                    cols.append(z if c not in levels else z > levels[c])
                else:
                    cols += _picked(store, run, rng.integers(
                        0, n, size=len(run) * rows), rows)
            out[start:stop] = _node_values(node, cols, classes_in, level)
        store[nid] = out
    return store[spec.root_id]


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

    Parameters
    ----------
    sizes : dict
        Node id -> sample size for every internal node, each a positive
        integer (see :func:`node_sizes`); leaf sizes come from the data.
    seed : int
        Run seed; node v's picks are keyed by (seed, wave-lane, v, block).
    """
    _require_singleton(samples)
    check_arity(spec, samples)
    root = _cascade(spec, samples, sizes, seed, Lane.WAVE)
    # a kept root must not pin the cascade's slab
    return EstimateResult.from_values(root.copy() if keep_values else root,
                                      seed, keep_values)


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
