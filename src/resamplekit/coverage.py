"""Coverage analysis of resampling quantile confidence intervals.

Setting: m distinct samples, an order functional phi whose value depends
only on how the pooled values interleave, and the upper interval
(Theta*_(floor(alpha k)), 1) built from k independent resampling
experiments of r realizations each, alpha = 1 - gamma.

Conditionally on the interleaving (the W vector) the success probability
q of one realization is a ratio of outcomes counted by
:func:`systems.count_walk`; one experiment undershoots Theta with
probability rho = P{Bin(r, q) < Theta r}, and the interval covers with
conditional probability R_C = P{Bin(k, rho) >= floor(alpha k)}.  The
unconditional coverage R averages R_C over the ordering law P_W: exactly
for exponential or other continuous generators, by a dynamic program over
the counts of labels placed and the hits counted so far (the recursion
Mann and Whitney, 1947, used to tabulate U), or by Monte Carlo over
simulated datasets.  ``protocol_table`` lists P_W, q, rho and R_C for
every W vector, walking the W prefixes on the same moves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from ._streams import (Lane, _count, block_count, block_ranges,
                       block_streams, substreams)
from .budget import check_budget, enumeration_budget
from .distributions import binom_cdf, binom_sf
from .resampling import check_arity, draw_values
from .samples import SampleSet
from .systems import (GRID_CHUNK, Compare, Input, KOfN, Max, Min, SystemSpec,
                      count_walk, evaluate_batch, parse_system, render)

__all__ = [
    "OrderFunctional", "WVector", "Protocol", "CoverageReport",
    "IntervalResult", "w_vector", "protocol_from_w", "w_from_protocol",
    "q_given_ordering", "rho", "alpha_floor", "coverage_conditional",
    "coverage_R", "protocol_table", "resampling_interval",
]

_EPS = 1e-9

_ORDER_NODES = (Input, Min, Max, KOfN, Compare)


@dataclass(frozen=True, eq=False)
class OrderFunctional:
    """An indicator system whose value depends only on the pooled ordering.

    Allowed nodes: inputs, min, max, k-of-n selection, and one comparison
    between subexpressions at the root.  Sums and comparisons against
    constants are rejected: their outcome changes under monotone transforms
    of the values, so no conditional success probability given the
    ordering exists.  So is a comparison below the root, whose 0/1 value
    would be ranked against data values.
    """

    spec: SystemSpec

    def __post_init__(self):
        for nid, node, _ in self.spec.table:
            if not isinstance(node, _ORDER_NODES):
                raise ValueError(
                    f"node {type(node).__name__} is not order-invariant; "
                    "order functionals allow min/max/kofn/cmp only")
            if isinstance(node, Compare) and nid != self.spec.root_id:
                raise ValueError("order functionals allow cmp only at the "
                                 "root; a nested comparison is not "
                                 "order-invariant")
        if not isinstance(self.spec.root, Compare):
            raise ValueError("order functional root must be a comparison "
                             "(an indicator)")

    @property
    def m(self) -> int:
        return self.spec.m


@dataclass(frozen=True)
class WVector:
    """Pooled-order sample labels: w[j] = which sample the j-th smallest
    pooled value came from (labels 1..m).  A label that is a bool or no
    integer raises TypeError."""

    w: tuple[int, ...]

    def __post_init__(self):
        w = tuple(_count(x, "W label") for x in self.w)
        labels = sorted(set(w))
        if not labels:
            raise ValueError("empty W vector")
        if labels != list(range(1, labels[-1] + 1)):
            raise ValueError(f"labels must be 1..m without gaps, got {labels}")
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return max(self.w)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(self.w.count(i) for i in range(1, self.m + 1))


@dataclass(frozen=True)
class Protocol:
    """Level-wise counting encoding of an interleaving.

    Level l (1 <= l < m) splits the pooled sequence at the positions of
    sample l+1's values: counts[l-1][g] is how many values with labels
    <= l fall in gap g (there are n_{l+1}+1 gaps).  A count that is a bool
    or no integer raises TypeError, a negative one ValueError.
    """

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "counts",
            tuple(tuple(_count(c, "protocol count", 0) for c in row)
                  for row in self.counts))

    @property
    def m(self) -> int:
        return len(self.counts) + 1


def w_vector(samples, on_ties: str = "error") -> WVector:
    """Pooled-order label vector of a dataset.

    ``samples`` is a SampleSet or a sequence of 1-d arrays.  Ties across
    the pooled values make order functionals ill-defined: ``on_ties``
    is ``"error"`` (default) or ``"break"`` (stable order by sample
    index, with a warning); any other value raises ValueError.
    """
    if on_ties not in ("error", "break"):
        raise ValueError(f"on_ties must be 'error' or 'break': {on_ties!r}")
    if isinstance(samples, SampleSet):
        columns = samples.columns
    else:
        columns = tuple(np.asarray(c, dtype=float) for c in samples)
    labels = np.concatenate(
        [np.full(len(col), i + 1, dtype=int) for i, col in enumerate(columns)])
    pooled = np.concatenate(columns)
    if len(np.unique(pooled)) != len(pooled):
        if on_ties == "break":
            warnings.warn("ties in pooled values broken by sample index; "
                          "order functionals are ill-defined under ties",
                          stacklevel=2)
        else:
            raise ValueError("ties in pooled values (pass on_ties='break' "
                             "to order tied values by sample index)")
    order = np.argsort(pooled, kind="stable")
    return WVector(tuple(int(x) for x in labels[order]))


def protocol_from_w(w: WVector) -> Protocol:
    """Per-level gap counts of an interleaving."""
    rows = []
    for level in range(1, w.m):
        gaps = [0]
        for label in w.w:
            if label == level + 1:
                gaps.append(0)
            elif label <= level:
                gaps[-1] += 1
        rows.append(tuple(gaps))
    return Protocol(tuple(rows))


def w_from_protocol(protocol: Protocol) -> WVector:
    """Rebuild the W vector; inverse of protocol_from_w."""
    # level-1 count row interleaves samples 1 and 2; each later row
    # interleaves the already-merged prefix with the next sample
    counts = protocol.counts
    if not counts:
        raise ValueError("protocol has no levels: need at least two samples")
    first = counts[0]
    merged = []
    for g, c in enumerate(first):
        merged.extend([1] * c)
        if g < len(first) - 1:
            merged.append(2)
    for level in range(2, protocol.m):
        row = counts[level - 1]
        if sum(row) != len(merged):
            raise ValueError(
                f"protocol row {level} accounts for {sum(row)} values, "
                f"prefix has {len(merged)}")
        new = []
        pos = 0
        for g, c in enumerate(row):
            new.extend(merged[pos:pos + c])
            pos += c
            if g < len(row) - 1:
                new.append(level + 1)
        merged = new
    return WVector(tuple(merged))


def _as_w_rows(w) -> tuple[np.ndarray, bool]:
    """W rows as a (rows, n) int array, and whether one WVector came in."""
    if isinstance(w, WVector):
        return np.asarray([w.w]), True
    rows = np.asarray(w)
    if rows.ndim != 2 or rows.shape[0] == 0 or \
            not np.issubdtype(rows.dtype, np.integer):
        raise ValueError("W rows must be a WVector or a non-empty 2-d int "
                         f"array, got shape {rows.shape} ({rows.dtype})")
    return rows, False


def q_given_ordering(func: OrderFunctional, w):
    """Conditional success probability of one realization given the ordering.

    Every argument draws uniformly from its own sample; only ranks matter,
    so the pooled positions serve as values and q is an exact ratio
    (count of succeeding index combinations over the product of sizes),
    counted from the ranks without evaluating the functional.

    ``w`` is a WVector (returns a float) or a (rows, n) int array of W
    rows with the same label counts (returns one q per row), counted in
    chunks of ``GRID_CHUNK // (n + 1)`` rows.
    """
    rows, scalar = _as_w_rows(w)
    m = int(rows.max())
    if func.m != m:
        raise ValueError(f"functional has {func.m} arguments, W vector has "
                         f"{m} samples")
    sizes = tuple(int(np.count_nonzero(rows[0] == i)) for i in range(1, m + 1))
    if min(sizes) < 1 or sum(sizes) != rows.shape[1]:
        raise ValueError("W rows need labels 1..m without gaps")
    total = math.prod(sizes)
    if total >= 2**63:
        raise ValueError(f"q counts in int64: product of sizes {total} >= 2**63")
    per = max(1, GRID_CHUNK // (rows.shape[1] + 1))
    hits = np.concatenate([_count_hits(func.spec, rows[r0:r0 + per], sizes)
                           for r0 in range(0, len(rows), per)])
    q = hits / total
    return float(q[0]) if scalar else q


def _count_hits(spec: SystemSpec, rows: np.ndarray, sizes) -> np.ndarray:
    """Succeeding index combinations of each W row, by rank counting.

    ``below[i, v, row]`` is how many values of sample i+1 sit at pooled
    rank v or lower (v = 0..n); the root sums #(a = v) #(b < v) over v.
    """
    below = np.zeros((len(sizes), rows.shape[1] + 1, len(rows)),
                     dtype=np.int64)
    below[:, 1:] = rows.T == np.arange(1, len(sizes) + 1)[:, None, None]
    # a running sum rank by rank; np.cumsum is several times slower
    for v in range(2, below.shape[1]):
        below[:, v] += below[:, v - 1]
    if (below[:, -1] != np.asarray(sizes)[:, None]).any():
        raise ValueError("every W row needs the label counts of the first")
    (a, _), (b, _) = count_walk(spec.table,
                                dict(enumerate(zip(below, sizes), 1)))
    return np.einsum("ij,ij->j", np.diff(a, axis=0), b[:-1])


def rho(q, theta: float, r: int):
    """P{one experiment's estimate falls below theta}: P{Bin(r,q) < theta r}.

    The upper summation limit is read strictly: successes up to
    ceil(theta r) - 1 (an epsilon guards float ceilings).  ``q`` may be an
    array; a scalar gives a float.  ``r`` must be an integer (TypeError for
    a bool or a float) of at least 1, and ``theta`` finite and in [0, 1]
    (ValueError).
    """
    qs = np.asarray(q, dtype=float)
    bad = qs[~((qs >= 0.0) & (qs <= 1.0))]
    if bad.size:
        raise ValueError(f"q must be in [0,1], got {bad[0]}")
    r = _count(r, "r")
    _check_theta(theta)
    kmax = math.ceil(theta * r - _EPS) - 1
    if kmax < 0:
        out = np.zeros_like(qs)
    elif kmax >= r:
        out = np.ones_like(qs)
    else:
        out = binom_cdf(kmax, r, qs)
    return float(out) if out.ndim == 0 else out


def _check_theta(theta) -> None:
    """theta is a proportion of the r experiments: finite and in [0, 1]."""
    if not math.isfinite(theta):
        raise ValueError(f"parameter theta must be finite, got {theta}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"parameter theta must be in [0,1], got {theta}")


def alpha_floor(alpha: float, k: int) -> int:
    """floor(alpha k) = max{xi >= 1 : xi <= alpha k}, epsilon-guarded.

    Raises when alpha k < 1: the quantile interval is undefined there, and
    as :func:`rho` does for r when ``k`` is no integer of at least 1.
    """
    k = _count(k, "k")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    j = math.floor(alpha * k + _EPS)
    if j < 1:
        raise ValueError(
            f"floor(alpha k) = 0 for alpha={alpha}, k={k}: the upper "
            "interval is undefined (increase k or lower gamma)")
    return min(j, k)


def coverage_conditional(rho_, k: int, alpha):
    """P{Bin(k, rho) >= floor(alpha k)}: conditional interval coverage.

    ``rho_`` and ``alpha`` may be arrays and broadcast against each other
    (rho per row in a column, one alpha per column); scalars give a float.
    ``k`` is checked as :func:`rho` checks r.
    """
    k = _count(k, "k")
    rhos = np.asarray(rho_, dtype=float)
    bad = rhos[~((rhos >= 0.0) & (rhos <= 1.0))]
    if bad.size:
        raise ValueError(f"rho must be in [0,1], got {bad[0]}")
    alphas = np.asarray(alpha, dtype=float)
    j0 = np.array([alpha_floor(float(a), k) for a in alphas.ravel()],
                  dtype=np.int64).reshape(alphas.shape)
    out = binom_sf(j0 - 1, k, rhos)
    return float(out) if out.ndim == 0 else out


# -- the ordering law -----------------------------------------------------

def _exponential_rates(generators) -> list[float] | None:
    rates = []
    for g in generators:
        if g.family != "exponential":
            return None
        rates.append(float(g.params[0]))
    return rates


def _race_steps(rates, sizes) -> np.ndarray:
    """step[i, c]: the race step of label i+1 with counts c (a C-order
    flat index over 0..n_i) still to come; NaN when none are.

    Memorylessness reduces the pooled ordering of exponential generators
    to a race: the next order statistic carries label i with probability
    c_i l_i / sum c_j l_j, c = remaining counts.
    """
    shape = [n + 1 for n in sizes]
    counts = np.indices(shape).reshape(len(shape), -1).astype(float)
    rates = np.asarray(rates, dtype=float)
    den = counts[0] * rates[0]
    for c, rate in zip(counts[1:], rates[1:]):
        den = den + c * rate
    with np.errstate(divide="ignore", invalid="ignore"):
        return counts * rates[:, None] / den


# The composite Gauss-Legendre rule of the numeric ordering law: panel
# edges at the finite support ends, the triangular mode and these quantile
# levels of every generator (0 and 1 give the support ends), no panel longer
# than 1/_PANELS of the edges' span, _GAUSS_NODES nodes per panel.
_EDGE_LEVELS = (0.0, 1e-10, 1e-6, 1e-3, 0.05, 0.25, 0.5, 0.75, 0.95,
                1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-10, 1.0)
_PANELS = 16
_GAUSS_NODES = 8


def _legendre(t, n: int) -> np.ndarray:
    """P_0(t) .. P_n(t), one row each, by Bonnet's recurrence."""
    p = [np.ones_like(t), t]
    for m in range(1, n):
        p.append(((2 * m + 1) * t * p[m] - m * p[m - 1]) / (m + 1))
    return np.array(p)


@cache
def _gauss_rule():
    """Gauss-Legendre nodes t on [-1, 1], ascending, and a read-only
    (n + 1, n) matrix: row j < n maps values at the nodes to the integral
    from -1 to t_j of their interpolating polynomial (Q V^-1, V the
    Legendre basis at the nodes and Q its integrals), row n to the integral
    over [-1, 1] (the Gauss weights).

    The nodes are the roots of P_n by Newton's method; V^-1 is the
    discrete orthogonality of P_0 .. P_(n-1) under the rule, (2m + 1)/2
    w_k P_m(t_k), so no linear algebra routine is called.
    """
    n = _GAUSS_NODES
    t = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):
        p = _legendre(t, n)
        t = t - p[n] * (t * t - 1) / (n * (t * p[n] - p[n - 1]))
    p = _legendre(t, n)
    weights = 2 * (1 - t * t) / (n * (t * p[n] - p[n - 1])) ** 2
    # int_-1^t P_0 = t + 1 and int_-1^t P_m = (P_m+1 - P_m-1) / (2m + 1),
    # times the (2m + 1)/2 of V^-1
    integrals = np.vstack([(t + 1) / 2, (p[2:] - p[:-2]) / 2]).T
    # einsum, not @: the first BLAS call maps its buffers (0.3 MB resident)
    rule = np.vstack([np.einsum("jm,mk->jk", integrals, p[:n] * weights),
                      weights])
    t.setflags(write=False)
    rule.setflags(write=False)
    return t, rule


def _panel_edges(generators) -> np.ndarray:
    """Sorted panel edges: every generator's finite support ends, quantiles
    at ``_EDGE_LEVELS`` and triangular mode, with each gap longer than
    1/_PANELS of their span cut into equal pieces.  A span beyond the
    float range raises ValueError."""
    levels = np.array(_EDGE_LEVELS)
    with np.errstate(over="ignore"):  # a quantile past the float range
        cuts = {x for g in generators for x in g.ppf(levels).tolist()
                if math.isfinite(x)}
    cuts.update(g.params[1] for g in generators if g.family == "triangular")
    cuts = sorted(cuts)
    longest = (cuts[-1] - cuts[0]) / _PANELS
    if not math.isfinite(longest):
        raise ValueError(f"the quantile span {cuts[0]!r} to {cuts[-1]!r} "
                         "overflows the float range; use mode='mc'")
    edges = []
    for a, b in zip(cuts, cuts[1:]):
        pieces = math.ceil((b - a) / longest)
        edges.extend(a + (b - a) * (i / pieces) for i in range(pieces))
    edges.append(cuts[-1])
    return np.array(edges)


class _NumericOrderingLaw:
    """P_W for general continuous generators by numeric integration.

    P_W = (prod n_i!) * int_{x_1<...<x_n} prod f_{w_j}(x_j) dx, evaluated
    by the chain of running integrals I_j(x) = int^x f_{w_j} I_{j-1}, on a
    composite Gauss-Legendre rule (Davis and Rabinowitz, *Methods of
    Numerical Integration*, 1984): ``_GAUSS_NODES`` nodes on each panel of
    ``_panel_edges``.  No density jumps inside a panel, and every law's own
    scale is resolved by its quantile edges; the mass beyond the outermost
    1e-10 quantiles is cut off.  ``nodes`` holds node k of every panel for
    k = 0, 1, ... (column k P + p is node k of panel p), then the last edge,
    whose column carries the whole integral.
    """

    def __init__(self, generators, sizes):
        t, self.rule = _gauss_rule()
        distinct = dict.fromkeys(generators)  # equal laws evaluated once
        edges = _panel_edges(distinct)
        self.half = np.diff(edges) / 2.0
        centers = edges[:-1] + self.half
        self.nodes = np.append(centers + self.half * t[:, None], edges[-1])
        with np.errstate(over="ignore"):  # a narrow law read far out
            pdf = {g: g.pdf(self.nodes) for g in distinct}
        self.dens = np.stack([pdf[g] for g in generators])
        self.scale = float(math.prod(math.factorial(n) for n in sizes))

    def running_integral(self, f, out):
        """Running integral from the first edge of each row of ``f`` (values
        at ``nodes``; the last column is not read) into ``out``, which may
        be ``f``.  At a panel's nodes it is the totals of the panels before
        it, carried in panel order, plus half its width times ``rule``
        applied to its values; in the last column, the total of every panel.

        The rule is applied by einsum, whose inner loop runs along the
        panels of one row and one rule row: each value is a sum from 0 over
        the nodes in order, whatever the rows beside it (a reduction in the
        inner loop, as on the panel-major layout, would be summed in SIMD
        lanes that depend on the data's alignment, and ``@`` calls BLAS)."""
        rows, n = len(f), _GAUSS_NODES
        part = np.einsum("rkp,jk->jrp", f[:, :-1].reshape(rows, n, -1),
                         self.rule)
        part *= self.half
        carry = np.cumsum(part[n], axis=1)
        inner = out[:, :-1].reshape(rows, n, -1)
        inner[:, :, 0] = part[:n, :, 0].T
        np.add(part[:n, :, 1:].transpose(1, 0, 2), carry[:, None, :-1],
               out=inner[:, :, 1:])
        out[:, -1] = carry[:, -1]


def _move_table(spec: SystemSpec, sizes):
    """Moves on the count lattice: ``(placed, strides, step)``.

    ``placed[i, c]`` is the count of label i+1 placed at c, a C-order flat
    index over 0..n_i, and placing that label moves c by ``strides[i]``.
    It adds ``step[i, c]`` = (G_a(c + e_i) - G_a(c)) G_b(c) hits of the
    root (``systems.count_walk`` on the count lattice), or -1 once the
    label is used up.
    """
    shape = tuple(n + 1 for n in sizes)
    cells = math.prod(shape)
    placed = np.indices(shape).reshape(len(shape), -1)
    (a, _), (b, _) = count_walk(spec.table,
                                dict(enumerate(zip(placed, sizes), 1)))
    strides = np.array([math.prod(shape[i + 1:]) for i in range(len(shape))])
    up = np.arange(cells) + strides[:, None]
    step = np.where(placed < np.asarray(sizes)[:, None],
                    (a[np.minimum(up, cells - 1)] - a) * b, -1)
    return placed, strides, step


def _move_factors(generators, sizes):
    """The ordering law on the count lattice: ``(factor, law)``.

    Placing label i+1 next at placed counts c (a C-order flat index)
    multiplies the probability carried there by ``factor[i, c]``: under
    exponential generators the race step, and ``law`` is None; otherwise
    the density of label i+1 at the nodes of ``law``, a
    :class:`_NumericOrderingLaw`, and ``law.running_integral`` of the
    product is carried on.
    """
    rates = _exponential_rates(generators)
    if rates is not None:
        # counts placed index the remaining ones backwards: flat(n - c) =
        # flat(n) - flat(c)
        return _race_steps(rates, sizes)[:, ::-1], None
    law = _NumericOrderingLaw(generators, sizes)
    cells = math.prod(n + 1 for n in sizes)
    return np.broadcast_to(law.dens[:, None],
                           (len(sizes), cells, len(law.nodes))), law


def _hit_plan(func: OrderFunctional, sizes, budget):
    """Integer plan of the coverage DP over states (c, h), level by level.

    c is the count vector of labels placed so far, smallest pooled value
    first, and h the root's hits so far: placing label i at c adds the
    hits of ``_move_table``, so a step depends on c only, and (c, h) ->
    (c + e_i, h + step) maps the states of c one to one into those of
    c + e_i.  Each c keeps one row per h from the fewest to the most hits
    that reach it, contiguous within its level.  Returns the hits of the final rows and,
    per level, its row count and per c (c, first row, rows, ((label, first
    target row in the next level), ...)).

    The plan is built once per (rendered functional, sizes) and shared.
    The budget counts the rows (every c has one at least) on every call
    before any probability is computed: the cells before the plan is built
    or read, then the rows up to each level in turn.  The plan's own size
    is bounded by the cells, whatever the rows.
    """
    what = "coverage DP states"
    limit = enumeration_budget(budget)
    check_budget(math.prod(n + 1 for n in sizes), what, limit)
    hits, levels, states = _dp_plan(render(func.spec.root), sizes)
    for needed in states:
        check_budget(needed, what, limit)
    return hits, levels


@lru_cache(maxsize=32)
def _dp_plan(text: str, sizes: tuple[int, ...]):
    """:func:`_hit_plan`'s plan of the functional ``text`` (read-only hits,
    levels as tuples) and the rows up to each level."""
    placed, strides, step = _move_table(parse_system(text), sizes)
    cells = placed.shape[1]
    moves = [[(i, c + stride, d) for i, (stride, d) in
              enumerate(zip(strides.tolist(), col)) if d >= 0]
             for c, col in enumerate(step.T.tolist())]
    lo, hi = [0] + [math.inf] * (cells - 1), [0] + [-math.inf] * (cells - 1)
    first = [0] * cells
    by_level = [[] for _ in range(sum(sizes) + 1)]
    for c, level in enumerate(placed.sum(axis=0).tolist()):
        by_level[level].append(c)
    levels, states, counted = [], [], 1
    for here, there in zip(by_level, by_level[1:]):
        for c in here:
            for _, c2, d in moves[c]:
                lo[c2] = min(lo[c2], lo[c] + d)
                hi[c2] = max(hi[c2], hi[c] + d)
        rows = 0
        for c2 in there:
            first[c2] = rows
            rows += hi[c2] - lo[c2] + 1
        counted += rows
        states.append(counted)
        levels.append((rows, tuple(
            (c, first[c], hi[c] - lo[c] + 1,
             tuple((i, first[c2] + lo[c] + d - lo[c2])
                   for i, c2, d in moves[c]))
            for c in here)))
    hits = np.arange(lo[-1], hi[-1] + 1)
    hits.flags.writeable = False
    return hits, tuple(levels), tuple(states)


def _hit_law(func: OrderFunctional, generators, sizes, budget):
    """Exact law of the root's hit count: (hits, probability) arrays.

    Each state carries the probability of reaching it, moved by
    ``_move_factors``: under exponential generators a scalar; otherwise the
    running integral of ``_NumericOrderingLaw`` at its Gauss-Legendre
    nodes, whose last column holds the whole integral.  That chain is
    linear in the integral, so the moves into a level add density times
    integral before one running integral over the level's states.
    """
    hits, levels = _hit_plan(func, sizes, budget)
    factor, law = _move_factors(generators, sizes)
    tail = factor.shape[2:]
    if law is None:
        factor = factor.tolist()  # a list indexes faster in the move loop
    cur = np.ones((1,) + tail)
    for rows, here in levels:
        nxt = np.zeros((rows,) + tail)
        for c, at, width, targets in here:
            block = cur[at:at + width]
            for i, to in targets:
                nxt[to:to + width] += block * factor[i][c]
        if law is not None:
            law.running_integral(nxt, nxt)
        cur = nxt
    return hits, cur if law is None else law.scale * cur[:, -1]


def _enumerate_w(func: OrderFunctional, generators, sizes):
    """Every W row, lexicographic, with its hits and P_W: chunks of
    ``(w, hits, p)``.

    A depth-first walk over W prefixes, level by level, on the moves of
    the coverage DP: each prefix is extended by every label left, prefix
    by prefix in label order, adding the hits of ``_move_table`` and
    moving the probability by ``_move_factors``.  Each level is taken in
    pieces of at most ``GRID_CHUNK // width`` prefixes, width the values
    carried per prefix (1, or the numeric law's nodes).
    """
    _, strides, step = _move_table(func.spec, sizes)
    factor, law = _move_factors(generators, sizes)
    tail = factor.shape[2:]
    per = max(1, GRID_CHUNK // math.prod(tail))
    names = np.arange(1, len(sizes) + 1, dtype=np.min_scalar_type(len(sizes)))
    pieces = [(np.empty((1, 0), names.dtype), np.zeros(1, dtype=np.intp),
               np.zeros(1, dtype=np.int64), np.ones((1,) + tail))]
    while pieces:
        w, c, hits, p = pieces.pop()
        if w.shape[1] == sum(sizes):
            yield w, hits, p if law is None else law.scale * p[:, -1]
            continue
        parent, label = np.nonzero(step[:, c].T >= 0)
        c = c[parent]
        w = np.column_stack([w[parent], names[label]])
        hits = hits[parent] + step[label, c]
        p = p[parent]
        p *= factor[label, c]
        if law is not None:
            law.running_integral(p, p)
        c = c + strides[label]
        pieces.extend((w[lo:lo + per], c[lo:lo + per], hits[lo:lo + per],
                       p[lo:lo + per])
                      for lo in reversed(range(0, len(w), per)))


@dataclass(frozen=True)
class ProtocolRow:
    """Exact-mode table entry for one interleaving."""

    w: tuple[int, ...]
    probability: float
    q: float
    rho: float
    coverage: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class ProtocolTable:
    """Exact-mode table in W order, one array per column (W rows, p, q, rho,
    R_C per gamma); iterating it gives one :class:`ProtocolRow` per row."""

    w: np.ndarray
    probability: np.ndarray
    q: np.ndarray
    rho: np.ndarray
    coverage: np.ndarray

    def __len__(self) -> int:
        return len(self.w)

    def __iter__(self):
        return map(ProtocolRow, map(tuple, self.w.tolist()),
                   self.probability.tolist(), self.q.tolist(),
                   self.rho.tolist(), map(tuple, self.coverage.tolist()))


@dataclass(frozen=True)
class CoverageReport:
    """Unconditional coverage of the quantile interval, per gamma."""

    mode: str
    sizes: tuple[int, ...]
    theta: float
    k: int
    r: int
    gammas: tuple[float, ...]
    coverage: tuple[float, ...]
    se: tuple[float, ...] | None
    replications: int | None
    seed: int | None
    total_probability: float | None = None

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode, "sizes": list(self.sizes),
            "theta": self.theta, "k": self.k, "r": self.r,
            "gammas": list(self.gammas), "coverage": list(self.coverage),
        }
        if self.se is not None:
            out["se"] = list(self.se)
        if self.replications is not None:
            out["replications"] = self.replications
        if self.seed is not None:
            out["seed"] = self.seed
        if self.total_probability is not None:
            out["total_probability"] = self.total_probability
        return out


def _as_gammas(gamma) -> tuple[float, ...]:
    if np.isscalar(gamma):
        gamma = (float(gamma),)
    gammas = tuple(float(g) for g in gamma)
    if not gammas:
        raise ValueError("need at least one gamma")
    for g in gammas:
        if not 0.0 < g < 1.0:
            raise ValueError(f"gamma must be in (0,1), got {g}")
    return gammas


def _check_problem(func: OrderFunctional, generators, sizes, theta, gamma,
                   k: int, r: int):
    """Validated (sizes, generators, gammas, alphas, k, r) of a coverage
    problem."""
    sizes = tuple(_count(n, "sample size") for n in sizes)
    k, r = _count(k, "k"), _count(r, "r")
    generators = tuple(generators)
    if len(generators) != func.m or len(sizes) != func.m:
        raise ValueError(
            f"functional takes {func.m} arguments; got {len(generators)} "
            f"generators and {len(sizes)} sizes")
    for g in generators:
        if not g.is_continuous:
            raise ValueError(f"generators must be continuous, got {g}")
    _check_theta(theta)
    gammas = _as_gammas(gamma)
    alphas = np.array([1.0 - g for g in gammas])
    for a in alphas:
        alpha_floor(a, k)  # fail fast on undefined intervals
    return sizes, generators, gammas, alphas, k, r


def coverage_R(func: OrderFunctional, generators, sizes, theta: float,
               gamma, k: int, r: int, mode: str = "exact",
               seed: int | None = None, replications: int = 10_000,
               budget: int | None = None, threads: int = 1) -> CoverageReport:
    """Unconditional coverage R = E_W[R_C] of the upper quantile interval.

    exact mode takes the law of the root's hit count (so of q) from a
    dynamic program over count vectors of placed labels and running hit
    counts (``budget`` bounds its states), under the ordering law of the
    generators (closed-form race for exponentials, numeric integration
    otherwise), and averages R_C over it.  mc mode simulates datasets with
    keyed substreams, works on the W rows of each block, and reports mean
    and SE per gamma.  ``threads`` has no effect.  ``k``, ``r``, the sizes
    and ``replications`` must be integers, not bools (TypeError), of at
    least 1 (2 for ``replications``; ValueError), ``theta`` finite and in
    [0, 1], and ``gamma`` a value or a non-empty sequence in (0, 1).
    """
    sizes, generators, gammas, alphas, k, r = _check_problem(
        func, generators, sizes, theta, gamma, k, r)

    if mode == "exact":
        hits, p = _hit_law(func, generators, sizes, budget)
        _, rc = _rho_and_coverage(hits / math.prod(sizes), theta, r, k,
                                  alphas)
        acc = np.column_stack([p[:, None] * rc, p]).sum(axis=0)
        return CoverageReport(
            mode="exact", sizes=sizes, theta=float(theta), k=k, r=r,
            gammas=gammas, coverage=tuple(float(c) for c in acc[:-1]),
            se=None, replications=None, seed=None,
            total_probability=float(acc[-1]))

    if mode != "mc":
        raise ValueError(f"mode must be 'exact' or 'mc', got {mode!r}")
    if seed is None:
        raise ValueError("mc mode needs a seed")
    replications = _count(replications, "replications", 2)
    rc_all = np.empty((replications, len(gammas)))
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    for start, stop, rng in block_streams(replications, seed,
                                          Lane.COVERAGE_MC):
        draws = np.concatenate(
            [g.sample(rng, (stop - start, n))
             for g, n in zip(generators, sizes)], axis=1)
        # stable argsort breaks (measure-zero) ties by sample index
        w_rows = labels[np.argsort(draws, axis=1, kind="stable")]
        _, rc_all[start:stop] = _rho_and_coverage(
            q_given_ordering(func, w_rows), theta, r, k, alphas)
    mean = rc_all.mean(axis=0)
    se = rc_all.std(axis=0, ddof=1) / math.sqrt(replications)
    return CoverageReport(
        mode="mc", sizes=sizes, theta=float(theta), k=k, r=r, gammas=gammas,
        coverage=tuple(float(x) for x in mean),
        se=tuple(float(x) for x in se), replications=replications,
        seed=seed)


def _rho_and_coverage(q, theta: float, r: int, k: int, alphas):
    """rho and R_C (a column per alpha) of each W row, computed once per
    distinct q: q takes at most prod n_i + 1 values."""
    distinct, row_of = np.unique(q, return_inverse=True)
    rho_d = rho(distinct, theta, r)
    return rho_d[row_of], coverage_conditional(rho_d[:, None], k,
                                               alphas)[row_of]


def protocol_table(func: OrderFunctional, generators, sizes, theta: float,
                   gamma, k: int, r: int,
                   budget: int | None = None) -> ProtocolTable:
    """The exact-mode table: one row per interleaving W, lexicographic,
    with its probability P_W, q, rho and R_C per gamma.

    Walks every W prefix on the moves of the coverage DP
    (``_enumerate_w``), which give each row its hits, so q = hits / prod
    n_i, and its P_W.  ``budget`` bounds the count of W rows, checked
    before the walk: the table grows as the multinomial coefficient of
    the sizes, and ``coverage_R`` needs none.  Summing P_W R_C over the
    rows gives the exact coverage up to float summation order.  Arguments
    are checked as by ``coverage_R``.
    """
    sizes, generators, gammas, alphas, k, r = _check_problem(
        func, generators, sizes, theta, gamma, k, r)
    total_w = math.factorial(sum(sizes))
    for n in sizes:
        total_w //= math.factorial(n)
    check_budget(total_w, "ordering enumeration", budget)
    total = math.prod(sizes)
    columns = []
    for w, hits, p in _enumerate_w(func, generators, sizes):
        q = hits / total
        columns.append((w, p, q, *_rho_and_coverage(q, theta, r, k, alphas)))
    return ProtocolTable(*map(np.concatenate, zip(*columns)))


@dataclass(frozen=True)
class IntervalResult:
    """Upper confidence interval from k resampling experiments."""

    a: float
    interval: tuple[float, float]
    gamma: float
    k: int
    r: int
    estimates: tuple[float, ...]


def resampling_interval(func: OrderFunctional, samples: SampleSet,
                        gamma: float, k: int, r: int,
                        seed: int) -> IntervalResult:
    """(Theta*_(floor(alpha k)), 1) with alpha = 1 - gamma.

    Runs k independent experiments of r realizations each on the given
    samples; a is the floor(alpha k)-th smallest estimate.
    """
    check_arity(func.spec, samples)
    gamma = float(gamma)
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0,1), got {gamma}")
    j0 = alpha_floor(1.0 - gamma, k)
    r = _count(r, "r")
    estimates = np.empty(k)
    blocks = block_count(r)
    # experiment e, block b draws from the substream (seed, lane, e, b)
    streams = substreams(seed, Lane.COVERAGE_INTERVAL,
                         np.repeat(np.arange(k), blocks),
                         np.tile(np.arange(blocks), k))
    for e in range(k):
        values = np.empty(r)
        for (_, start, stop), rng in zip(block_ranges(r), streams):
            values[start:stop] = evaluate_batch(
                func.spec, draw_values(samples, stop - start, rng).T)
        estimates[e] = values.mean()
    a = float(np.sort(estimates)[j0 - 1])
    return IntervalResult(a=a, interval=(a, 1.0), gamma=gamma, k=k, r=r,
                          estimates=tuple(float(x) for x in estimates))
