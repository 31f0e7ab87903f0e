"""Exact variance of the resampling estimate via coincidence-pattern calculus.

Two realizations of the estimate may reuse the same sample elements; the
estimator variance over r realizations is

    Var = (1/r) mu2 + ((r-1)/r) mu11 - mu^2

where mu11 is the mixed moment E[phi phi'] of two realizations, decomposed
over coincidence patterns: mu11 = sum_pattern P{pattern} mu11(pattern).

Three pattern families describe which elements coincide:

* ``OmegaPair`` -- for layouts where every argument has its own sample: the
  set of argument positions that drew the same element twice.
* ``BetaPair`` -- general layouts: entry i holds the argument position of the
  second realization that reuses argument i's element (0 if not reused).
* ``AlphaPair`` -- per-block counts of shared elements (the beta pattern with
  the matching forgotten); probabilities are products of hypergeometric pmfs.

Mixed moments come in two modes.  *Empirical* mode conditions on the data:
mu11(pattern) averages phi(v) phi(v') over all ordered admissible
index-vector pairs showing exactly that pattern.  *Generator* mode treats
sample elements as draws from known distributions: coinciding positions
share one random value, all others are independent; moments are computed
exactly for finite-support distributions and by Monte Carlo otherwise.

Exact moments of every layout come from one tensor of phi, over the data
or over the finite supports: its marginals give the sum of phi(v) phi(v')
over the pairs that agree at least on each joint partial injection, and on
data Moebius inversion leaves those that coincide exactly, which every
pattern family reads (:func:`_pair_sums`).  A threshold system that reads
each argument of a singleton layout only through its side of the level
puts that tensor on its 2^m lattice of classes, each class weighted by
its count of values (:func:`_class_at_least_sums`), where
:func:`_class_tensor_counts` takes that route.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._streams import Lane, _count, block_streams
from .budget import check_budget
from .distributions import KnownDistribution
from .resampling import (ExhaustiveMoments, check_arity, chunk_moments,
                         grid_values)
from .samples import BlockLayout, SampleSet, _draw_table
from .systems import SystemSpec, evaluate_batch, evaluate_grid

__all__ = [
    "OmegaPair", "BetaPair", "AlphaPair", "MixedMoment", "PairRow",
    "VarianceReport", "as_layout", "omega_probability", "alpha_probability",
    "beta_probability", "pair_probability", "enumerate_pairs",
    "omega_from_indices", "beta_from_indices", "alpha_from_indices",
    "conditional_mixed_moment", "resampling_variance", "assemble_variance",
]


# -- pattern types --------------------------------------------------------

@dataclass(frozen=True)
class OmegaPair:
    """Argument positions where both realizations drew the same element."""

    args: frozenset

    def __init__(self, args=()):
        object.__setattr__(self, "args", frozenset(int(a) for a in args))

    def __repr__(self):
        inner = ",".join(str(a) for a in sorted(self.args))
        return f"omega{{{inner}}}"


@dataclass(frozen=True)
class BetaPair:
    """Per-argument reuse map: beta[i-1] = v > 0 when argument i's element
    reappears as argument v of the second realization, else 0."""

    beta: tuple[int, ...]

    def __init__(self, beta):
        object.__setattr__(self, "beta", tuple(int(v) for v in beta))

    def __repr__(self):
        return f"beta{self.beta}"


@dataclass(frozen=True)
class AlphaPair:
    """Shared-element counts per block (blocks ordered by first argument)."""

    counts: tuple[int, ...]

    def __init__(self, counts):
        object.__setattr__(self, "counts", tuple(int(c) for c in counts))

    def __repr__(self):
        return f"alpha{self.counts}"


def as_layout(obj) -> BlockLayout:
    """Coerce a SampleSet, BlockLayout or size sequence to a BlockLayout."""
    if isinstance(obj, BlockLayout):
        return obj
    if isinstance(obj, SampleSet):
        return obj.layout
    return BlockLayout.singleton(tuple(obj))


# -- probabilities --------------------------------------------------------

def _hyper_pmf(a: int, n: int, m: int) -> float:
    """P{a shared elements between two ordered m-of-n draws}; exact rational."""
    if a < 0 or a > m or m - a > n - m:
        return 0.0
    num = math.comb(m, a) * math.comb(n - m, m - a)
    return float(Fraction(num, math.comb(n, m)))


def omega_probability(omega, sizes) -> float:
    """P{omega} for a layout with one argument per sample.

    Equals prod_{i in omega} 1/n_i * prod_{i not in omega} (1 - 1/n_i).
    Each size is checked as a count of at least 1.
    """
    if isinstance(omega, OmegaPair):
        omega = omega.args
    omega = frozenset(int(a) for a in omega)
    sizes = tuple(_count(n, "sample size") for n in sizes)
    m = len(sizes)
    if not omega <= set(range(1, m + 1)):
        raise ValueError(f"omega {sorted(omega)} not within arguments 1..{m}")
    p = 1.0
    for i, n in enumerate(sizes, start=1):
        p *= (1.0 / n) if i in omega else (1.0 - 1.0 / n)
    return p


def alpha_probability(alpha, layout) -> float:
    """P{alpha}: product over blocks of hypergeometric overlap pmfs."""
    layout = as_layout(layout)
    counts = alpha.counts if isinstance(alpha, AlphaPair) else tuple(alpha)
    if len(counts) != len(layout.block_args):
        raise ValueError(
            f"alpha has {len(counts)} entries for {len(layout.block_args)} blocks")
    p = 1.0
    for a, args, n in zip(counts, layout.block_args, layout.block_sizes):
        if not 0 <= a <= len(args):
            raise ValueError(f"alpha shares {a} elements in block {args}; "
                             f"the count must be in 0..{len(args)}")
        p *= _hyper_pmf(int(a), n, len(args))
    return p


def _beta_fragments(beta: BetaPair, layout: BlockLayout) -> list[dict]:
    """Split a beta map into per-block fragments, validating it."""
    if len(beta.beta) != layout.m:
        raise ValueError(f"beta has {len(beta.beta)} entries for m={layout.m}")
    frags = []
    for args in layout.block_args:
        frag = {}
        for i in args:
            v = beta.beta[i - 1]
            if v:
                if v not in args:
                    raise ValueError(
                        f"beta maps argument {i} to {v}, outside its block {args}")
                frag[i] = v
        if len(set(frag.values())) != len(frag):
            raise ValueError(f"beta not injective within block {args}")
        frags.append(frag)
    return frags


def beta_probability(beta, layout) -> float:
    """P{beta}: the alpha probability split evenly over the matchings.

    Given the per-block overlap counts, every assignment of which positions
    carry the shared elements and how they match is equally likely, so
    P{beta} = P{alpha(beta)} / prod_i [ C(m_i, a_i)^2 a_i! ].
    """
    layout = as_layout(layout)
    if not isinstance(beta, BetaPair):
        beta = BetaPair(beta)
    frags = _beta_fragments(beta, layout)
    p = 1.0
    for frag, args, n in zip(frags, layout.block_args, layout.block_sizes):
        m = len(args)
        a = len(frag)
        block_p = _hyper_pmf(a, n, m)
        if block_p == 0.0:
            return 0.0
        p *= block_p / (math.comb(m, a) ** 2 * math.factorial(a))
    return p


def pair_probability(pair, layout) -> float:
    layout = as_layout(layout)
    if isinstance(pair, OmegaPair):
        if not layout.singleton_blocks:
            raise ValueError("omega patterns require one argument per block")
        return omega_probability(pair, layout.sizes)
    if isinstance(pair, BetaPair):
        return beta_probability(pair, layout)
    if isinstance(pair, AlphaPair):
        return alpha_probability(pair, layout)
    raise TypeError(f"not a pair pattern: {pair!r}")


# -- enumeration ----------------------------------------------------------

def _block_beta_fragments(args: tuple[int, ...]):
    """All reuse fragments for one block, as (frag dict, match count)."""
    out = []
    for k in range(len(args) + 1):
        for sources in itertools.combinations(args, k):
            for targets in itertools.permutations(args, k):
                out.append((dict(zip(sources, targets)), k))
    return out


def enumerate_pairs(layout, family: str = "auto", budget: int | None = None):
    """All positive-probability patterns with probabilities; sums to 1.

    Parameters
    ----------
    layout : SampleSet, BlockLayout or size sequence
    family : {"auto", "omega", "alpha", "beta"}
        ``auto`` picks omega for singleton-block layouts, alpha otherwise.

    Returns
    -------
    list of (pattern, probability)
        A new list on every call.  The table behind it is built once per
        (layout, family) and shared; the budget is checked on every call,
        on the pattern count, before the table is built or read.
    """
    layout = as_layout(layout)
    if family == "auto":
        family = "omega" if layout.singleton_blocks else "alpha"
    if family == "omega":
        if not layout.singleton_blocks:
            raise ValueError("omega patterns require one argument per block")
        total = 2 ** layout.m
    elif family == "alpha":
        total = math.prod(len(r) for r in _shared_counts(layout))
    elif family == "beta":
        # a block of m arguments has C(m, k) perm(m, k) fragments that
        # share k elements
        total = math.prod(
            sum(math.comb(len(args), k) * math.perm(len(args), k)
                for k in shared)
            for args, shared in zip(layout.block_args,
                                    _shared_counts(layout)))
    else:
        raise ValueError(f"unknown pattern family {family!r}")
    check_budget(total, f"{family} pattern enumeration", budget)
    return list(_pattern_table(layout, family))


def _shared_counts(layout: BlockLayout) -> list[range]:
    """Per block the shared counts of positive probability (those of the
    alpha patterns and of the beta fragments)."""
    return [range(max(0, 2 * len(args) - n), len(args) + 1)
            for args, n in zip(layout.block_args, layout.block_sizes)]


@functools.lru_cache(maxsize=32)
def _pattern_table(layout: BlockLayout, family: str) -> tuple:
    """The (pattern, probability) rows of :func:`enumerate_pairs` for an
    omega, alpha or beta ``family``, built once per (layout, family)."""
    if family == "omega":
        m, sizes = layout.m, layout.sizes
        out = []
        for mask in range(2 ** m):
            omega = OmegaPair(i + 1 for i in range(m) if mask >> i & 1)
            p = omega_probability(omega, sizes)
            if p > 0.0:  # a sample of size 1 is always shared
                out.append((omega, p))
        return tuple(out)
    if family == "alpha":
        return tuple((alpha, alpha_probability(alpha, layout)) for alpha in
                     map(AlphaPair, itertools.product(*_shared_counts(layout))))
    per_block = [[f for f, k in _block_beta_fragments(args) if k in shared]
                 for args, shared in zip(layout.block_args,
                                         _shared_counts(layout))]
    out = []
    for combo in itertools.product(*per_block):
        beta = [0] * layout.m
        for frag in combo:
            for i, v in frag.items():
                beta[i - 1] = v
        beta = BetaPair(beta)
        out.append((beta, beta_probability(beta, layout)))
    return tuple(out)


# -- classification of index-vector pairs ---------------------------------

def _indices_of(j):
    if hasattr(j, "indices"):
        j = j.indices
    return tuple(int(x) for x in j)


def omega_from_indices(jq, jq2) -> OmegaPair:
    """Positions where the two index vectors agree (singleton-block reading)."""
    a = _indices_of(jq)
    b = _indices_of(jq2)
    if len(a) != len(b):
        raise ValueError("index vectors of different lengths")
    return OmegaPair(i + 1 for i, (x, y) in enumerate(zip(a, b)) if x == y)


def beta_from_indices(jq, jq2, layout) -> BetaPair:
    """Reuse map between two admissible index vectors."""
    layout = as_layout(layout)
    a = _indices_of(jq)
    b = _indices_of(jq2)
    if len(a) != layout.m or len(b) != layout.m:
        raise ValueError(f"index vectors must have length m={layout.m}")
    beta = [0] * layout.m
    for args in layout.block_args:
        where = {b[v - 1]: v for v in args}
        for i in args:
            beta[i - 1] = where.get(a[i - 1], 0)
    return BetaPair(beta)


def alpha_from_indices(jq, jq2, layout) -> AlphaPair:
    """Per-block shared-element counts between two index vectors."""
    layout = as_layout(layout)
    a = _indices_of(jq)
    b = _indices_of(jq2)
    counts = []
    for args in layout.block_args:
        counts.append(len({a[i - 1] for i in args} & {b[v - 1] for v in args}))
    return AlphaPair(counts)


# -- mixed moments --------------------------------------------------------

@dataclass(frozen=True)
class MixedMoment:
    """E[phi phi'] under a coincidence pattern.

    ``se`` is 0 for exact routes; ``method`` records which route ran.
    """

    value: float
    se: float
    method: str


def _block_targets(pair, layout: BlockLayout):
    """Per-block match condition: ("frag", dict) or ("count", k)."""
    if isinstance(pair, OmegaPair):
        if not layout.singleton_blocks:
            raise ValueError("omega patterns require one argument per block")
        if not pair.args <= set(range(1, layout.m + 1)):
            raise ValueError(f"{pair!r} not within arguments 1..{layout.m}")
        out = []
        for args in layout.block_args:
            a = args[0]
            out.append(("frag", {a: a} if a in pair.args else {}))
        return out
    if isinstance(pair, BetaPair):
        return [("frag", frag) for frag in _beta_fragments(pair, layout)]
    if isinstance(pair, AlphaPair):
        if len(pair.counts) != len(layout.block_args):
            raise ValueError(
                f"{pair!r} has {len(pair.counts)} entries for "
                f"{len(layout.block_args)} blocks")
        return [("count", k) for k in pair.counts]
    raise TypeError(f"not a pair pattern: {pair!r}")


def _matching_of(pair, layout: BlockLayout) -> list[dict]:
    """Matchings i -> v consistent with the pattern (one for omega/beta)."""
    targets = _block_targets(pair, layout)
    per_block = []
    for (kind, tgt), args in zip(targets, layout.block_args):
        if kind == "frag":
            per_block.append([tgt])
        else:
            per_block.append([f for f, k in _block_beta_fragments(args)
                              if k == tgt])
    out = []
    for combo in itertools.product(*per_block):
        merged = {}
        for frag in combo:
            merged.update(frag)
        out.append(merged)
    return out


def conditional_mixed_moment(spec: SystemSpec, source, pair, *,
                             layout=None, seed: int = 0,
                             mc_draws: int = 100_000,
                             budget: int | None = None) -> MixedMoment:
    """Mixed moment E[phi phi'] of two realizations under a given pattern.

    Parameters
    ----------
    spec : SystemSpec
    source : SampleSet or sequence of KnownDistribution
        A SampleSet runs the data-conditional (empirical) route; a list of
        per-argument distributions runs the generator route.
    pair : OmegaPair, BetaPair or AlphaPair
    layout : optional
        Block structure in generator mode; one block per argument if not
        given.  A pattern that matches an argument outside its block is an
        error.
    seed, mc_draws : int
        Only used in generator mode when some law has no finite support:
        the moment is then Monte Carlo (``method="generator-mc"``).
        ``mc_draws`` must be an integer, not a bool (TypeError), of at
        least 2, so that the standard error is defined (ValueError).
    """
    mc_draws = _count(mc_draws, "mc_draws", 2)
    if isinstance(source, SampleSet):
        return _empirical_mixed_moment(spec, source, pair, budget)
    dists = list(source)
    lay = _generator_layout(spec, dists, layout)
    return _generator_mixed_moment(spec, dists, lay, pair, seed, mc_draws,
                                   budget)


def _generator_layout(spec, dists, layout) -> BlockLayout:
    """The block layout of generator mode, checked against the system and
    the laws; one block per argument if none is given (block sizes enter
    pattern probabilities only, never a moment)."""
    lay = as_layout([1] * spec.m if layout is None else layout)
    if len(dists) != lay.m:
        raise ValueError(f"need one distribution per argument ({lay.m})")
    for args in lay.block_args:
        first = dists[args[0] - 1]
        for a in args[1:]:
            if dists[a - 1] != first:
                raise ValueError(
                    f"arguments {args} share a sample and must share "
                    f"one distribution")
    if spec.m != lay.m:
        raise ValueError(
            f"system takes {spec.m} arguments but layout binds {lay.m}")
    return lay


def _empirical_mixed_moment(spec, samples: SampleSet, pair,
                            budget) -> MixedMoment:
    _, (value,) = _exact_moments(spec, samples, samples.layout, (pair,),
                                 budget)
    return MixedMoment(value=value, se=0.0, method="empirical-exact")


def _generator_mixed_moment(spec, dists, layout: BlockLayout, pair, seed,
                            mc_draws, budget) -> MixedMoment:
    if all(d.family == "empirical" for d in dists):
        _, (value,) = _exact_moments(spec, dists, layout, (pair,), budget)
        return MixedMoment(value=value, se=0.0, method="generator-exact")
    moments = [_one_matching_moment(spec, dists, matching, seed, mi, mc_draws)
               for mi, matching in enumerate(_matching_of(pair, layout))]
    k = len(moments)
    if k == 0:
        raise ValueError(f"pattern {pair!r} has probability 0 on this layout")
    return MixedMoment(value=sum(v for v, _ in moments) / k,
                       se=math.sqrt(sum(se * se for _, se in moments)) / k,
                       method="generator-mc")


def _exact_moments(spec, source, layout: BlockLayout, patterns: tuple,
                   budget):
    """Exhaustive moments and the mixed moments of several patterns, each
    the pair sums of the joint injections it admits (per block the one its
    fragment names, or all with its shared count) over their pair counts.
    The injections of a table of patterns are found once per (layout,
    table), after the budget check of :func:`_pair_sums`; those of a single
    pattern (a mixed moment) on every call."""
    moments, sums, sizes = _pair_sums(spec, source, layout, budget)
    counts = _pair_counts(layout.block_args, sizes,
                          isinstance(source, SampleSet))
    cells = (_table_cells(layout, patterns) if len(patterns) > 1
             else [_pattern_cells(pat, layout) for pat in patterns])
    out = []
    for pat, admitted in zip(patterns, cells):
        count = sum(counts[c] for c in admitted)
        if count == 0:
            raise ValueError(f"pattern {pat!r} has probability 0 on this layout")
        out.append(sum(sums[c] for c in admitted) / count)
    return moments, out


@functools.lru_cache(maxsize=32)
def _table_cells(layout: BlockLayout, patterns: tuple) -> tuple:
    """:func:`_pattern_cells` of every pattern of a table, in order."""
    return tuple(_pattern_cells(pat, layout) for pat in patterns)


def _pattern_cells(pair, layout: BlockLayout) -> tuple:
    """The joint injections a pattern admits, as indices into the lists of
    :func:`_pair_sums` (block 0 varying fastest), in order."""
    cells, stride = [0], 1
    for (kind, tgt), args in zip(_block_targets(pair, layout),
                                 layout.block_args):
        frags, where, _ = _block_plan(args)
        key = frozenset(tgt.items()) if kind == "frag" else tgt
        cells = [c + stride * j for j in where.get(key, ()) for c in cells]
        stride *= len(frags)
    return tuple(cells)


@functools.lru_cache(maxsize=64)
def _block_plan(args: tuple[int, ...]):
    """A block's partial injections a -> v (first draw to second), the
    identities on the subsets of ``args`` first (bit s for ``args[s]``);
    their indices by items and by size; and per pair a -> v the superset
    Moebius step src -> dst = src + {a -> v}, as slices (views) if single."""
    frags = [{a: a for s, a in enumerate(args) if sub >> s & 1}
             for sub in range(2 ** len(args))]
    frags += [frag for frag, _ in _block_beta_fragments(args)
              if frag not in frags]
    where = {frozenset(frag.items()): [j] for j, frag in enumerate(frags)}
    for j, frag in enumerate(frags):
        where.setdefault(len(frag), []).append(j)
    steps = []
    for a, v in itertools.product(args, repeat=2):
        src = [j for j, frag in enumerate(frags)
               if a not in frag and v not in frag.values()]
        dst = [where[frozenset(frags[j].items()) | {(a, v)}][0] for j in src]
        steps.append((np.array(src), np.array(dst)) if len(src) > 1 else
                     (slice(src[0], src[0] + 1), slice(dst[0], dst[0] + 1)))
    return tuple(frags), where, tuple(steps)


def _pair_sums(spec, source, layout: BlockLayout, budget):
    """Exhaustive moments, per joint partial injection sigma (per block,
    which argument of the first draw reappears as which of the second) the
    sum of phi(v) phi(v') over the pairs that coincide on sigma, and the
    values on each block's axes (n_b, or s_b under generators), which with
    the layout fix the pairs' counts (:func:`_pair_counts`).  The sums come
    from one tensor T of phi with an axis for each argument, block by
    block, and the sums A(tau) of :func:`_at_least_sums` over it.

    On data (``source`` a SampleSet) block b's axes have length n_b and T is
    0 where a block repeats a position.  The pairs are the ordered pairs of
    admissible vectors that coincide exactly on sigma: superset Moebius
    inversion (Rota 1964), in place as in Bjoerklund et al. (2007), turns
    A into those sums, a non-injective superset adding 0, and they number
    prod_b perm(n_b, k_b) perm(n_b - k_b, k_b - |sigma_b|).  Under
    finite-support generators (``source`` a list of empirical laws) T is
    phi over the product of the supports, s_b values per axis of block b,
    and A(sigma) itself sums over the grid points of the first draw and of
    the second draw's arguments outside sigma's range,
    prod_b s_b^k_b s_b^(k_b - |sigma_b|) of them.  The budget counts the
    dense cells, the joint injections and the marginals held: all
    prod_b (n_b + 1)^k_b cells of every marginal (s_b for n_b under
    generators), less the ones over one-argument blocks only.

    On data with one argument per sample, a system whose class lattice
    (:attr:`SystemSpec.class_lattice`) has only data leaves as boundary
    nodes reads each argument through its class alone.  There T is the
    2^m lattice, each class standing for its count of values, and
    :func:`_class_at_least_sums` gives every A(tau) as an exact integer, so
    every pair sum and moment keeps the bits of the position tensor
    (:func:`_class_tensor_counts` decides that route).  mu = mu2 is the
    lattice's hit count over prod n_i, as in
    :func:`resampling.exhaustive_moments`.
    """
    data = isinstance(source, SampleSet)
    if data:
        check_arity(spec, source)
        sizes = layout.block_sizes
    else:
        axes = [np.asarray(d.params, dtype=float) for d in source]
        sizes = tuple(len(axes[args[0] - 1]) for args in layout.block_args)
    blocks = list(zip(layout.block_args, sizes))
    cells = injections = held = 1
    for args, n in blocks:
        k = len(args)
        cells *= n ** k
        injections *= sum(math.comb(k, a) ** 2 * math.factorial(a)
                          for a in range(k + 1))
        held *= (n + 1) ** k
    held -= math.prod(n + 1 for args, n in blocks if len(args) == 1)
    plans = [_block_plan(args) for args, _ in blocks]
    classes = _class_tensor_counts(spec, source, budget) if data else None
    if classes is not None:
        count = math.prod(below + above for below, above in classes)
        mu = spec.class_lattice.hits(classes) / count
        moments = ExhaustiveMoments(mu=mu, mu2=mu, count=count)
        sums = _class_at_least_sums(spec.class_lattice.phi, classes)
    else:
        check_budget(cells + injections + held, "pair-moment tensor", budget)
        if data:
            chunks = list(grid_values(spec, source, budget))
            tensor = np.concatenate(chunks)
            if cells > len(tensor):  # a block draws twice: scatter into zeros
                drawn = [np.ravel_multi_index(_draw_table(n, len(args)).T,
                                              (n,) * len(args))
                         for args, n in blocks]
                dense = np.zeros([n ** len(args) for args, n in blocks])
                dense[np.ix_(*drawn)] = tensor.reshape([len(d) for d in drawn])
                tensor = dense
            tensor = tensor.reshape([n for args, n in blocks for _ in args])
        else:
            dims = [len(x) for x in axes]
            chunks = list(evaluate_grid(spec, list(enumerate(axes)), dims))
            tensor = np.concatenate(chunks).reshape(dims).transpose(
                [a - 1 for args, _ in blocks for a in args])
        moments = chunk_moments(chunks)
        sums = _at_least_sums(tensor, layout.block_args, plans)
    if data:
        inner = 1
        for frags, _, steps in plans:
            sub = sums.reshape(-1, len(frags), inner)
            for src, dst in steps:
                sub[:, src, :] -= sub[:, dst, :]
            inner *= len(frags)
    return moments, sums.tolist(), sizes


def _class_tensor_counts(spec, samples: SampleSet, budget) -> list | None:
    """Per argument, its values at most and above the level of the class
    lattice, where :func:`_pair_sums` takes the class tensor; else None.

    The class tensor needs one argument per sample and a lattice whose
    boundary nodes are all data leaves, and is taken when its 3^m class
    cells are no more than the prod n_i positions of the position tensor.
    It charges the 2 * 3^m cells of M and N, the 2^m joint injections and
    the sum n_i values compared with the level (``"threshold-class pair
    tensor"``).
    """
    lattice = spec.class_lattice
    # boundary ids up to m are leaves
    if (lattice is None or not samples.singleton_blocks
            or lattice.boundary[-1] > spec.m):
        return None
    columns = [samples.values_for_arg(v) for v in lattice.boundary]
    sizes = [len(column) for column in columns]
    if 3 ** spec.m > math.prod(sizes):
        return None
    check_budget(2 * 3 ** spec.m + 2 ** spec.m + sum(sizes),
                 "threshold-class pair tensor", budget)
    above = [int(np.count_nonzero(c > lattice.level)) for c in columns]
    return [(size - a, a) for size, a in zip(sizes, above)]


@functools.lru_cache(maxsize=32)
def _pair_counts(block_args: tuple, sizes: tuple, data: bool) -> tuple:
    """Per joint partial injection sigma of :func:`_pair_sums` (block 0
    varying fastest), the number of pairs that coincide exactly on sigma:
    ordered draws without replacement of n_b positions on data, with
    replacement of s_b support values under generators."""
    draws = math.perm if data else pow  # ordered draws of k of n values
    counts = [1]
    for args, n in zip(block_args, sizes):
        k = len(args)
        rest = n - k if data else n  # values for the second draw off sigma
        counts = [c * draws(n, k) * draws(rest, k - len(frag))
                  for frag in _block_plan(args)[0] for c in counts]
    return tuple(counts)


# the maps of one axis's two classes (columns) onto its three states (rows:
# class 0 kept, class 1 kept, the axis summed out), M's first and N's
# second: FIXED + SCALED * (cnt(0), cnt(1))
_CLASS_FIXED = np.array([[[[1, 0], [0, 1], [0, 0]]],
                         [[[0, 0], [0, 0], [0, 0]]]])
_CLASS_SCALED = np.array([[[[0, 0], [0, 0], [1, 1]]],
                          [[[1, 0], [0, 1], [1, 1]]]])
# the fold of one axis's three states into (summed out, kept)
_CLASS_FOLD = np.array([[0, 0, 1], [1, 1, 0]])


def _class_at_least_sums(phi: np.ndarray, counts) -> np.ndarray:
    """A(tau) of :func:`_at_least_sums` for every identity tau on a subset
    K of the arguments (index bit g for argument g + 1), on a singleton
    layout whose system reads each argument only through its class:
    ``phi`` is the system on the class lattice, axis g for argument g + 1,
    and ``counts[g]`` the number of argument g + 1's values at most and
    above the level.

    A(K) = sum_{b_K} cnt_K(b_K) M_K(b_K)^2, where M_K sums phi weighted by
    the counts of the classes off K.  Each axis takes three states, its two
    classes kept or the axis summed out, so every M_K lies in one tensor of
    3^m cells, made by one product per axis; so does N_K = cnt_K M_K, whose
    summed-out axes drop by plain sums.  A(K) sums M_K N_K over the kept
    classes: one more product per axis folds each axis's states into
    (summed out, kept), leaving 2^m cells.  The route holds M and N,
    2 * 3^m cells, at most.  Every term is an integer, held in int64 while
    the pair count (prod n)^2 fits and in Python ints beyond, so every A(K)
    is exact.
    """
    m = phi.ndim
    total = math.prod(below + above for below, above in counts)
    dtype = np.int64 if total * total < 2 ** 63 else object
    maps = _CLASS_FIXED + _CLASS_SCALED * np.array(
        counts, dtype=dtype)[:, None, None, None, :]
    MN = phi.reshape(1, 1, 2, -1)
    for g in range(m):
        MN = np.matmul(maps[g], MN.reshape(len(MN), 3 ** g, 2, -1))
    sums = np.multiply(MN[0], MN[1], out=MN[0])
    for g in range(m):  # axis g of 3 states -> 2, the axes before it done
        sums = np.matmul(_CLASS_FOLD, sums.reshape(2 ** g, 3, -1))
    # axis g is bit g: reverse the axes, so the last varies fastest
    return sums.reshape((2,) * m).transpose().ravel()


def _at_least_sums(tensor, block_args, plans) -> np.ndarray:
    """Per joint partial injection tau of the blocks (block 0 varying
    fastest), A(tau): the sum of T(v) T(v') over the pairs of cells of T
    that agree at least on tau, T having one axis per argument, block by
    block.

    M_K sums T over the axes outside K, and A(tau) = sum M_dom M_ran with
    each ran axis moved onto its dom partner; an identity on K gives
    sum M_K^2, taken on the walk over the marginals.  Only marginals that
    keep an axis of a block with several arguments are held, none on a
    singleton layout.  On the class lattice of a threshold system the same
    sums come from :func:`_class_at_least_sums`, each class weighted by its
    count of values.
    """
    m = tensor.ndim
    slot = {a: g for g, a in enumerate(a for args in block_args for a in args)}
    shared = sum(1 << slot[a] for args in block_args if len(args) > 1
                 for a in args)
    # per mask the joint index of its identity
    identity, size = [0], 1
    for args, (frags, _, _) in zip(block_args, plans):
        identity = [i + size * j for j in range(2 ** len(args))
                    for i in identity]
        size *= len(frags)
    sums = np.empty(size)
    marginals = {}

    def walk(marginal, mask, first):
        # each subset once: drop axes in increasing order
        sums[identity[mask]] = float(np.square(marginal).sum())
        if mask & shared:
            marginals[mask] = marginal
        for i in range(first, m):
            walk(marginal.sum(axis=i, keepdims=True), mask & ~(1 << i), i + 1)

    walk(tensor, 2 ** m - 1, 0)
    joint = itertools.product(*(frags for frags, _, _ in reversed(plans)))
    for j, combo in enumerate(joint if shared else ()):  # else identities
        meets = {slot[a]: slot[v] for frag in combo for a, v in frag.items()}
        if any(g != h for g, h in meets.items()):
            dom = sum(1 << g for g in meets)
            ran = sum(1 << h for h in meets.values())
            rest = iter(h for h in range(m) if not ran >> h & 1)
            order = [meets[g] if g in meets else next(rest) for g in range(m)]
            sums[j] = float((marginals[dom]
                             * marginals[ran].transpose(order)).sum())
    return sums


def _one_matching_moment(spec, dists, matching, seed, matching_index,
                         mc_draws):
    m = spec.m
    inverse = {v: i for i, v in matching.items()}
    s = 0.0
    s2 = 0.0
    for start, stop, rng in block_streams(mc_draws, seed, Lane.MIXED_MOMENT,
                                          matching_index):
        n = stop - start
        V = np.column_stack([dists[a].sample(rng, n) for a in range(m)])
        V2 = np.empty_like(V)
        for v in range(1, m + 1):
            if v in inverse:
                V2[:, v - 1] = V[:, inverse[v] - 1]
            else:
                V2[:, v - 1] = dists[v - 1].sample(rng, n)
        prod = evaluate_batch(spec, V) * evaluate_batch(spec, V2)
        s += float(prod.sum())
        s2 += float(np.square(prod).sum())
    mean = s / mc_draws
    var = max(s2 / mc_draws - mean * mean, 0.0)
    return mean, math.sqrt(var / mc_draws)


def _generator_moments(spec, dists, seed, mc_draws):
    """Monte Carlo (mu, mu2, se_mu) of one realization under the generators."""
    s1 = s2 = 0.0
    for start, stop, rng in block_streams(mc_draws, seed, Lane.MIXED_MOMENT,
                                          0):
        V = np.column_stack([d.sample(rng, stop - start) for d in dists])
        vals = evaluate_batch(spec, V)
        s1 += float(vals.sum())
        s2 += float(np.square(vals).sum())
    mu = s1 / mc_draws
    mu2 = s2 / mc_draws
    return mu, mu2, math.sqrt(max(mu2 - mu * mu, 0.0) / mc_draws)


# -- variance assembly ----------------------------------------------------

@dataclass(frozen=True)
class PairRow:
    """One pattern's contribution to the mixed moment; ``method`` is the
    route that computed the moment (as in :class:`MixedMoment`)."""

    pair: object
    probability: float
    moment: float
    moment_se: float
    method: str


@dataclass(frozen=True)
class VarianceReport:
    """Exact variance of the r-realization estimate, with the pattern table."""

    variance: float
    variance_se: float
    r: int
    mu: float
    mu2: float
    mu11: float
    mode: str
    rows: tuple[PairRow, ...]

    def to_dict(self) -> dict:
        return {
            "variance": self.variance,
            "variance_se": self.variance_se,
            "r": self.r,
            "mu": self.mu,
            "mu2": self.mu2,
            "mu11": self.mu11,
            "mode": self.mode,
            "pairs": [
                {
                    "pattern": repr(row.pair),
                    "probability": row.probability,
                    "moment": row.moment,
                    "moment_se": row.moment_se,
                    "method": row.method,
                }
                for row in self.rows
            ],
        }


def resampling_variance(spec: SystemSpec, source, r: int, *, layout=None,
                        family: str = "auto", seed: int = 0,
                        mc_draws: int = 100_000,
                        budget: int | None = None) -> VarianceReport:
    """Variance of the r-realization resampling estimate.

    Empirical mode (``source`` is a SampleSet) conditions on the data:
    moments are exhaustive averages, and the result matches the spread of
    repeated seeded runs on the same data.  Generator mode (``source`` is a
    list of per-argument KnownDistribution, with ``layout`` giving block
    sizes) averages over the data draw as well.  ``r`` must be an integer,
    not a bool (TypeError), of at least 1 (ValueError), and ``mc_draws``,
    the Monte Carlo draws per moment where a law has no finite support, an
    integer of at least 2.
    """
    r = _count(r, "r")
    mc_draws = _count(mc_draws, "mc_draws", 2)
    if isinstance(source, SampleSet):
        lay = source.layout
    elif layout is None:
        raise ValueError("generator mode needs layout= (block sizes)")
    else:
        source = list(source)
        lay = _generator_layout(spec, source, layout)
    table = enumerate_pairs(lay, family, budget)
    return _variance_report(spec, source, lay, table, r, seed, mc_draws,
                            budget)


def _variance_report(spec, source, layout: BlockLayout, table, r: int, seed,
                     mc_draws, budget) -> VarianceReport:
    """The variance report of a (pattern, probability) table: every moment
    from one read of the pair-moment tensor on data and under
    finite-support generators, else Monte Carlo pattern by pattern."""
    if isinstance(source, SampleSet):
        mode, exact = "empirical", True
    else:
        mode = "generator"
        exact = all(d.family == "empirical" for d in source)
    if exact:
        ex, moments = _exact_moments(spec, source, layout,
                                     tuple(pat for pat, _ in table), budget)
        rows = [PairRow(pat, p, moment, 0.0, f"{mode}-exact")
                for (pat, p), moment in zip(table, moments)]
        return assemble_variance(rows, r, ex.mu, ex.mu2, 0.0, mode)
    mu, mu2, mu_se = _generator_moments(spec, source, seed, mc_draws)
    rows = []
    for pi, (pat, p) in enumerate(table):
        mm = _generator_mixed_moment(spec, source, layout, pat,
                                     seed + 1 + pi, mc_draws, budget)
        rows.append(PairRow(pat, p, mm.value, mm.se, mm.method))
    return assemble_variance(rows, r, mu, mu2, mu_se, mode)


def assemble_variance(rows, r: int, mu: float, mu2: float, mu_se: float,
                      mode: str) -> VarianceReport:
    """Var = mu2/r + (r-1)/r mu11 - mu^2 with mu11 = sum_pattern p mu11(p).

    The standard error propagates the Monte Carlo errors of the pattern
    moments and of mu; it is 0 when every input is exact.
    """
    mu11 = sum(row.probability * row.moment for row in rows)
    variance = mu2 / r + (r - 1) / r * mu11 - mu * mu
    w = (r - 1) / r
    se = math.sqrt(
        sum((w * row.probability * row.moment_se) ** 2 for row in rows)
        + (2 * mu * mu_se) ** 2)
    return VarianceReport(variance=variance, variance_se=se, r=r, mu=mu,
                          mu2=mu2, mu11=mu11, mode=mode, rows=tuple(rows))
