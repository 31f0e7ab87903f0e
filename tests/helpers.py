"""Shared helpers for statistical assertions and enumeration oracles.

Monte Carlo comparisons in this suite state their tolerance as a multiple
of the standard error of the quantity being checked; these helpers supply
the standard errors that are not one-liners.  The oracles recompute exact
quantities the slow way, from the process definition, for comparison with
the library's array routes.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from resamplekit._streams import (_TABLE_LIMIT, BLOCK, Lane, block_ranges,
                                  distinct_codes, distinct_outcomes,
                                  draw_distinct, substream)
from resamplekit.coverage import (IntervalResult, ProtocolRow, WVector,
                                  _exponential_rates, _NumericOrderingLaw,
                                  alpha_floor, coverage_conditional,
                                  q_given_ordering, rho)
from resamplekit.damage import (CountEstimates, DamageData, DamageMCReport,
                                PluginMCReport, poisson_truth)
from resamplekit.pairs import (OmegaPair, _block_targets, alpha_from_indices,
                               beta_from_indices, omega_from_indices)
from resamplekit.renewal import _PAD_SD, GridConvolutionKit, PluginReport
from resamplekit.resampling import (EstimateResult, chunk_moments,
                                   draw_index_batch)
from resamplekit.samples import ordered_draws
from resamplekit.systems import (GRID_CHUNK, Input, KOfN, Max, Min,
                                 Threshold, _node_values, children_of,
                                 elementary_apply, evaluate, evaluate_batch)


# -- generated system texts -----------------------------------------------

# one-child operators to wrap a system text in
CHAIN_OPS = ("min(", "max(", "sum(", "kofn(1; ")


# the levels of generated ``ind`` nodes
LEVELS = (0.75, 1.0, 1.5, 2.5)


@st.composite
def indicator(draw, body):
    """``ind(body < level)`` or ``ind(body > level)``."""
    op = draw(st.sampled_from("<>"))
    return f"ind({body} {op} {draw(st.sampled_from(LEVELS))})"


@st.composite
def subtree(draw, leaves, ops=("min", "max", "sum", "kofn", "cmp")):
    """Expression over the given leaves: one of ``ops`` per inner node, of
    two to four children (a ``cmp`` of two, a ``kofn`` with any k from 1
    to its arity), and now and then an ``ind`` around a subtree, so that
    order operators and sums meet indicators and comparisons among their
    children."""
    if len(leaves) == 1:
        text = f"x{leaves[0]}"
    else:
        op = draw(st.sampled_from(list(ops)))
        arity = 2 if op == "cmp" else draw(st.integers(2, min(4, len(leaves))))
        cuts = sorted(draw(st.lists(st.integers(1, len(leaves) - 1),
                                    min_size=arity - 1, max_size=arity - 1,
                                    unique=True)))
        kids = [draw(subtree(leaves[a:b], ops))
                for a, b in zip([0] + cuts, cuts + [len(leaves)])]
        if op == "kofn":
            text = f"kofn({draw(st.integers(1, arity))}; {', '.join(kids)})"
        elif op == "cmp":
            text = f"cmp({kids[0]} {draw(st.sampled_from('<>'))} {kids[1]})"
        else:
            text = f"{op}({', '.join(kids)})"
    if draw(st.integers(0, 5)) == 0:
        text = draw(indicator(text))
    return text


@st.composite
def systems(draw, m, ops=("min", "max", "sum", "kofn", "cmp")):
    """System text over x1..xm and whether it holds an indicator (an ``ind``
    or ``cmp`` node), whose 0/1 values want absolute tolerances; the inner
    nodes as in :func:`subtree` with these ``ops``."""
    leaves = draw(st.permutations(range(1, m + 1)))
    root = draw(st.sampled_from(["real", "ind", "cmp"] if m > 1
                                else ["real", "ind"]))
    if root == "cmp":
        cut = draw(st.integers(1, m - 1))
        op = draw(st.sampled_from("<>"))
        return (f"cmp({draw(subtree(leaves[:cut], ops))} {op} "
                f"{draw(subtree(leaves[cut:], ops))})", True)
    body = draw(subtree(leaves, ops))
    if root == "ind":
        body = draw(indicator(body))
    return body, "ind(" in body or "cmp(" in body


# -- statistics ------------------------------------------------------------

def mean_se(values) -> float:
    """Standard error of the sample mean."""
    arr = np.asarray(values, dtype=float)
    return float(arr.std(ddof=1) / math.sqrt(arr.size))


def var_se(values) -> float:
    """Standard error of the sample variance (fourth-moment formula).

    For iid observations, Var(s^2) = (m4 - s^4 (N-3)/(N-1)) / N with m4 the
    central fourth moment; the square root of the plug-in version is a
    serviceable standard error for N in the thousands.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    centred = arr - arr.mean()
    m4 = float(np.mean(centred**4))
    s2 = float(arr.var(ddof=1))
    return math.sqrt(max(m4 - s2 * s2 * (n - 3) / (n - 1), 0.0) / n)


def combined_se(a_se: float, b_se: float) -> float:
    """Standard error of a difference of two independent estimates."""
    return math.sqrt(a_se * a_se + b_se * b_se)


def trace_wave_patterns(spec, sizes, passes, rng, chunk=100_000):
    """Index-tracking oracle for the cascade's shared-leaf pattern law.

    Simulates whole cascades while carrying, for every node sample element,
    the original data index each leaf argument resolved to.  Two distinct
    root elements are then compared leaf by leaf; the returned array counts
    each sharing pattern (bitmask over leaf arguments, bit i-1 for xi).
    This follows the process definition only -- none of the propagation
    code is involved.
    """
    m = spec.m
    counts = np.zeros(2**m, dtype=np.int64)
    done = 0
    while done < passes:
        p = min(chunk, passes - done)
        leafmap = {
            i: {i: np.broadcast_to(np.arange(sizes[i]), (p, sizes[i]))}
            for i in range(1, m + 1)}
        for nid, _, kids in spec.table:
            if not kids:
                continue
            n_v = sizes[nid]
            maps = {}
            for c in kids:
                picks = rng.integers(0, sizes[c], size=(p, n_v))
                for leaf, arr in leafmap[c].items():
                    maps[leaf] = np.take_along_axis(arr, picks, axis=1)
            leafmap[nid] = maps
        root = leafmap[spec.root_id]
        n_k = sizes[spec.root_id]
        q = rng.integers(0, n_k, size=p)
        q2 = (q + 1 + rng.integers(0, n_k - 1, size=p)) % n_k
        rows = np.arange(p)
        mask = np.zeros(p, dtype=np.int64)
        for leaf, arr in root.items():
            mask |= (arr[rows, q] == arr[rows, q2]).astype(np.int64) << (leaf - 1)
        counts += np.bincount(mask, minlength=2**m)
        done += p
    return counts


def evaluate_batch_oracle(spec, X) -> np.ndarray:
    """``evaluate_batch`` by recursion over the node objects.

    Reads neither the post-order table nor the node ids, so it checks the
    table route independently; recursion limits it to shallow trees.
    """
    X = np.asarray(X, dtype=float)

    def rec(node):
        if isinstance(node, Input):
            return X[:, node.index - 1]
        return elementary_apply(node, [rec(c) for c in children_of(node)])

    return rec(spec.root)


def leaf_deps_oracle(spec) -> dict:
    """Node id -> frozenset of the argument positions under it, as the
    union of its children's sets along the post-order table."""
    deps = {}
    for nid, _, kids in spec.table:
        deps[nid] = (frozenset().union(*(deps[c] for c in kids)) if kids
                     else frozenset((nid,)))
    return deps


def children_ids(spec, node_id) -> tuple:
    """Child ids of a node, read off the post-order table."""
    return next(kids for nid, _, kids in spec.table if nid == node_id)


def parent_of(spec) -> dict:
    """Node id -> the id of its parent, read off the post-order table; the
    root has none."""
    return {kid: nid for nid, _, kids in spec.table for kid in kids}


def block_of_arg(layout, arg: int) -> int:
    """Index of the block of a BlockLayout holding 1-based argument ``arg``."""
    return next(i for i, args in enumerate(layout.block_args) if arg in args)


def pattern_probabilities(table, m):
    """Spread a pattern table (frozenset -> prob) over the 2^m bitmask grid."""
    probs = np.zeros(2**m)
    for pattern, p in table.items():
        probs[sum(1 << (i - 1) for i in pattern)] = p
    return probs


def pair_moment_oracle(spec, samples, family):
    """Data-conditional mixed moments by enumerating index-vector pairs.

    Every ordered pair of admissible index vectors (the tuple generator
    ``enumerate_index_vectors``) is classified into its pattern of the
    given family (``"omega"``, ``"beta"`` or ``"alpha"``) and phi(v) phi(v')
    is averaged per pattern with the scalar ``evaluate``.  Returns
    ``{pattern: (moment, pair count)}`` for the patterns that occur.
    """
    layout = samples.layout
    classify = {
        "omega": lambda a, b: omega_from_indices(a, b),
        "beta": lambda a, b: beta_from_indices(a, b, layout),
        "alpha": lambda a, b: alpha_from_indices(a, b, layout),
    }[family]
    vectors = list(samples.enumerate_index_vectors())
    phi = [evaluate(spec, samples.values_matrix(np.array(v))[0])
           for v in vectors]
    acc: dict = {}
    for (v, fv), (w, fw) in itertools.product(zip(vectors, phi), repeat=2):
        pattern = classify(v, w)
        s, n = acc.get(pattern, (0.0, 0))
        acc[pattern] = (s + fv * fw, n + 1)
    return {pattern: (s / n, n) for pattern, (s, n) in acc.items()}


def class_moment_oracle(spec, samples, level):
    """Omega moments, as exact Fractions, of a system that reads each
    argument of a singleton layout only through its class [x > level],
    from the counts of each sample's values at most and above the level.

    Each pair of class vectors (b, b') is weighed by the number of value
    pairs that show it under pattern K: per argument in K, one shared value
    of class b_g (so b_g = b'_g); per argument off K, two distinct values
    of classes b_g and b'_g.  phi(b) is the system at values that show
    the classes, taken from the data.  Returns ``{OmegaPair: Fraction}``
    for the patterns with pairs.
    """
    m = spec.m
    cols = [samples.values_for_arg(a) for a in range(1, m + 1)]
    sides = [(col[col <= level], col[col > level]) for col in cols]
    counts = [(len(low), len(high)) for low, high in sides]
    phi = {}
    for b in itertools.product((0, 1), repeat=m):
        if all(counts[g][c] for g, c in enumerate(b)):
            phi[b] = int(evaluate(spec, [sides[g][c][0]
                                         for g, c in enumerate(b)]))
    out = {}
    for mask in range(2 ** m):
        total = pairs = 0
        for b, u in phi.items():
            for b2, u2 in phi.items():
                weight = 1
                for g in range(m):
                    same = counts[g][b[g]] if b[g] == b2[g] else 0
                    weight *= same if mask >> g & 1 else \
                        counts[g][b[g]] * counts[g][b2[g]] - same
                total += u * u2 * weight
                pairs += weight
        if pairs:
            out[OmegaPair(g + 1 for g in range(m) if mask >> g & 1)] = \
                Fraction(total, pairs)
    return out


def lattice_phi_oracle(spec) -> np.ndarray:
    """phi of ``spec.class_lattice`` by the cascade's class rules: the
    region's nodes, from the boundary nodes' 0/1 classes (one axis each)
    up to the root, each read by ``_node_values`` over the 2^B lattice."""
    lattice = spec.class_lattice
    axes = len(lattice.boundary)
    region = {spec.table[-1][2][0]}
    for nid, node, kids in reversed(spec.table):
        if nid in region and isinstance(node, (Min, Max, KOfN)):
            region.update(kids)
    stack = []
    for nid, node, kids in spec.table:
        if nid in lattice.boundary:
            shape = [1] * axes
            shape[lattice.boundary.index(nid)] = 2
            stack.append(np.array([False, True]).reshape(shape))
        elif nid in region or nid == spec.root_id:
            cut = len(stack) - len(kids)
            stack[cut:] = [_node_values(node, stack[cut:], True, None)]
    return np.broadcast_to(stack[0], (2,) * axes).astype(np.int64)


def lattice_hits_oracle(phi, counts) -> int:
    """sum_b phi(b) prod_j counts[j][b_j] cell by cell over the 2^B
    lattice, in Python ints, for ``counts[j]`` = (at most L, above L)."""
    cells = phi.ravel().tolist()
    for below, above in reversed(counts):  # the last axis varies fastest
        cells = [c0 * below + c1 * above
                 for c0, c1 in zip(cells[::2], cells[1::2])]
    return cells[0]


# -- the index-row grid route ----------------------------------------------

def product_grid(tables, slots, width: int, chunk: int = GRID_CHUNK):
    """Yield the Cartesian product of row tables as (N, width) int arrays.

    ``tables[k]`` is an (L_k, w_k) int array and ``slots[k]`` the ``w_k``
    output columns its rows fill.  Rows come in lexicographic order of the
    table positions, the last table varying fastest as in
    ``itertools.product``, at most ``chunk`` rows to an array.
    """
    dims = [len(t) for t in tables]
    total = math.prod(dims)
    for start in range(0, total, chunk):
        pos = np.unravel_index(np.arange(start, min(start + chunk, total)),
                               dims)
        out = np.empty((len(pos[0]), width), dtype=np.intp)
        for table, cols, p in zip(tables, slots, pos):
            out[:, list(cols)] = table[p]
        yield out


def index_vector_chunks(samples, chunk: int = GRID_CHUNK):
    """Every admissible index vector as (N, m) int arrays of at most
    ``chunk`` rows, in the order of ``enumerate_index_vectors``."""
    return product_grid(
        [ordered_draws(b.size, b.draw_count) for b in samples.blocks],
        [[a - 1 for a in b.args] for b in samples.blocks], samples.m, chunk)


def grid_values_oracle(spec, samples, chunk: int = GRID_CHUNK):
    """``grid_values`` with one index row per grid cell: index chunks
    gathered by ``values_matrix`` and evaluated by ``evaluate_batch``."""
    for idx in index_vector_chunks(samples, chunk):
        yield evaluate_batch(spec, samples.values_matrix(idx))


def _matched_draw_pairs(n: int, args, kind: str, tgt) -> np.ndarray:
    """Pairs of ordered draws from one block that show the block's match
    condition, as rows [p, p2] in (p, p2) lexicographic order.  ``kind``
    and ``tgt`` are an entry of ``pairs._block_targets``: ("frag", {a: v})
    asks that exactly argument a's element reappear as argument v,
    ("count", k) that exactly k elements be shared."""
    k = len(args)
    draws = ordered_draws(n, k)
    # want[s, t]: position s of the first draw reappears at position t
    want = np.zeros((k, k), dtype=bool)
    if kind == "frag":
        pos = {a: s for s, a in enumerate(args)}
        for a, v in tgt.items():
            want[pos[a], pos[v]] = True
    out = []
    step = max(1, GRID_CHUNK // len(draws))
    for lo in range(0, len(draws), step):
        first = draws[lo:lo + step]
        eq = first[:, None, :, None] == draws[None, :, None, :]
        if kind == "frag":
            ok = (eq == want).all(axis=(2, 3))
        else:
            ok = eq.sum(axis=(2, 3)) == tgt
        a, b = np.nonzero(ok)
        out.append(np.hstack([first[a], draws[b]]))
    return np.concatenate(out)


def shared_pair_moment_oracle(spec, samples, pair,
                              chunk: int = GRID_CHUNK) -> float:
    """Data-conditional mixed moment of a pattern from index rows: each
    row joins one matched draw pair per block, columns 0..m-1 index the
    first realization and m..2m-1 the second."""
    layout = samples.layout
    m = layout.m
    tables = [_matched_draw_pairs(n, args, kind, tgt)
              for (kind, tgt), args, n in zip(_block_targets(pair, layout),
                                              layout.block_args,
                                              layout.block_sizes)]
    slots = [[a - 1 for a in args] + [m + a - 1 for a in args]
             for args in layout.block_args]
    s = 0.0
    for rows in product_grid(tables, slots, 2 * m, chunk):
        va = evaluate_batch(spec, samples.values_matrix(rows[:, :m]))
        vb = evaluate_batch(spec, samples.values_matrix(rows[:, m:]))
        s += float(np.dot(va, vb))
    return s / math.prod(len(t) for t in tables)


def support_grid_oracle(supports, chunk: int = GRID_CHUNK):
    """Every combination of finite-support values as (N, k) value rows."""
    values = [np.asarray(x, dtype=float) for x in supports]
    tables = [np.arange(len(x))[:, None] for x in values]
    slots = [[k] for k in range(len(values))]
    for idx in product_grid(tables, slots, len(values), chunk):
        yield np.column_stack([x[idx[:, k]] for k, x in enumerate(values)])


def support_moments_oracle(spec, dists, chunk: int = GRID_CHUNK):
    """(mu, mu2) of one realization under finite-support generators, from
    value rows."""
    ex = chunk_moments(evaluate_batch(spec, V) for V in
                       support_grid_oracle([d.params for d in dists], chunk))
    return ex.mu, ex.mu2


def support_matching_oracle(spec, dists, matching,
                            chunk: int = GRID_CHUNK) -> float:
    """E[phi phi'] under finite-support generators when argument i of the
    first realization reappears as argument ``matching[i]`` of the second,
    from value rows: the m first arguments, then one column per fresh
    argument of the second realization."""
    m = spec.m
    inverse = {v: i for i, v in matching.items()}
    fresh = [v for v in range(1, m + 1) if v not in inverse]
    supports = [dists[a - 1].params for a in range(1, m + 1)]
    supports += [dists[v - 1].params for v in fresh]
    second = [inverse[v] - 1 if v in inverse else m + fresh.index(v)
              for v in range(1, m + 1)]
    s = 0.0
    for V in support_grid_oracle(supports, chunk):
        s += float(np.dot(evaluate_batch(spec, V[:, :m]),
                          evaluate_batch(spec, V[:, second])))
    return s / math.prod(len(x) for x in supports)


def enumerate_w_oracle(sizes):
    """All label interleavings of the given sample sizes, lexicographic,
    by depth-first recursion over the next label."""
    w = []
    remaining = list(sizes)
    total = sum(sizes)

    def rec():
        if len(w) == total:
            yield tuple(w)
            return
        for i, left in enumerate(remaining):
            if left:
                remaining[i] -= 1
                w.append(i + 1)
                yield from rec()
                w.pop()
                remaining[i] += 1

    yield from rec()


def race_probability_oracle(w, rates, sizes) -> float:
    """P_W for exponential generators as a product of race steps, with
    Python floats in the library's operation order."""
    remaining = list(sizes)
    p = 1.0
    for label in w:
        num = remaining[label - 1] * rates[label - 1]
        den = sum(c * rate for c, rate in zip(remaining, rates))
        p *= num / den
        remaining[label - 1] -= 1
    return p


def numeric_pw_oracle(law, w) -> np.ndarray:
    """P_W of every row of ``w`` under ``law``, a ``_NumericOrderingLaw``,
    integrated from scratch with Python floats, label by label and panel by panel (node k
    of panel p in column k P + p): each row of ``law.rule`` applied to a
    panel's values is a sum from 0.0 in node order, times half the panel's
    width; a node's integral adds the totals of the panels before it,
    carried in panel order; the last column holds the total of every
    panel.  Equal to the last bit where numpy's einsum multiplies and adds
    in two roundings, as its x86-64 builds do (a fused multiply-add would
    round once)."""
    n, panels = law.rule.shape[1], len(law.half)
    rule, half, dens = law.rule.tolist(), law.half.tolist(), law.dens.tolist()
    out = np.empty(len(np.atleast_2d(w)))
    for i, row in enumerate(np.atleast_2d(w).tolist()):
        cur = [1.0] * len(law.nodes)
        for label in row:
            f = [d * c for d, c in zip(dens[label - 1], cur)]
            cur, carry = [0.0] * len(f), None
            for p, h in enumerate(half):
                values = f[p:n * panels:panels]
                part = []
                for weights in rule:
                    s = 0.0
                    for v, x in zip(values, weights):
                        s += v * x
                    part.append(s * h)
                for k in range(n):
                    cur[k * panels + p] = part[k] if carry is None \
                        else part[k] + carry
                carry = part[n] if carry is None else carry + part[n]
            cur[-1] = carry
        out[i] = law.scale * cur[-1]
    return out


def q_oracle(spec, w) -> float:
    """q given the ordering by evaluating phi with the scalar ``evaluate``
    on every combination of pooled ranks, one per argument."""
    positions = [[rank + 1.0 for rank, label in enumerate(w) if label == i]
                 for i in range(1, max(w) + 1)]
    combos = list(itertools.product(*positions))
    return sum(evaluate(spec, c) != 0.0 for c in combos) / len(combos)


def coverage_oracle(func, generators, sizes, theta, gammas, k, r,
                    mode="exact", seed=None, replications=10_000):
    """``coverage_R`` one W vector at a time, with the scalar layers.

    Exact mode walks ``enumerate_w_oracle`` and takes P_W from
    ``race_probability_oracle`` or ``numeric_pw_oracle``, and calls
    ``q_given_ordering``, ``rho`` and ``coverage_conditional`` once per
    tuple, adding up in W order; it
    returns ``(coverage, total_probability, table)``.  mc mode draws each
    block from its keyed substream and fills the replications row by row
    through a dict cache; it returns ``(coverage, se)``.
    """
    def r_c(w):
        q = q_given_ordering(func, WVector(w))
        rho_w = rho(q, theta, r)
        return q, rho_w, tuple(coverage_conditional(rho_w, k, 1.0 - g)
                               for g in gammas)

    if mode == "exact":
        rates = _exponential_rates(generators)
        law = None if rates is not None else \
            _NumericOrderingLaw(generators, sizes)
        cov = np.zeros(len(gammas))
        total = 0.0
        table = []
        for w in enumerate_w_oracle(sizes):
            p = race_probability_oracle(w, rates, sizes) if rates is not None \
                else float(numeric_pw_oracle(law, w)[0])
            q, rho_w, rc = r_c(w)
            cov += p * np.asarray(rc)
            total += p
            table.append(ProtocolRow(w, p, q, rho_w, rc))
        return tuple(float(c) for c in cov), total, tuple(table)

    rc_all = np.empty((replications, len(gammas)))
    labels = np.concatenate(
        [np.full(n, i + 1, dtype=int) for i, n in enumerate(sizes)])
    cache = {}
    for b, start, stop in block_ranges(replications, BLOCK):
        rng = substream(seed, Lane.COVERAGE_MC, b)
        draws = np.concatenate(
            [g.sample(rng, (stop - start, n))
             for g, n in zip(generators, sizes)], axis=1)
        w_rows = labels[np.argsort(draws, axis=1, kind="stable")]
        for i, row in enumerate(w_rows.tolist()):
            w = tuple(row)
            if w not in cache:
                cache[w] = r_c(w)[2]
            rc_all[start + i] = cache[w]
    mean = rc_all.mean(axis=0)
    se = rc_all.std(axis=0, ddof=1) / math.sqrt(replications)
    return tuple(float(x) for x in mean), tuple(float(x) for x in se)


def first_untabulated(k):
    """The least n >= k with perm(n, k) above the outcome table's limit."""
    n = k
    while math.perm(n, k) <= _TABLE_LIMIT:
        n += 1
    return n


def fisher_yates_oracle(n, k, digits):
    """Partial Fisher-Yates on a Python list: swap i <-> i + digits[i] for
    each position i < k, keep the first k positions."""
    perm = list(range(n))
    for i in range(k):
        j = i + int(digits[i])
        perm[i], perm[j] = perm[j], perm[i]
    return perm[:k]


# -- lattice renewal laws by direct convolution ---------------------------

class DirectGridKit:
    """``GridConvolutionKit`` with every j-fold power of both component
    pmfs kept from direct ``np.convolve`` and each difference law one more
    ``np.convolve``: the same lattice, O(L^2) per product."""

    def __init__(self, x_dist, y_dist, m_x, m_y, points=4096):
        self.m_x, self.m_y = m_x, m_y
        los, his = [], []
        for d in (x_dist, y_dist):
            lo, hi = d.support()
            if not math.isfinite(lo):
                lo = d.mean() - _PAD_SD * math.sqrt(d.var())
            if not math.isfinite(hi):
                hi = d.mean() + _PAD_SD * math.sqrt(d.var())
            los.append(lo)
            his.append(hi)
        self._h = h = (max(his) - min(los)) / points
        pmf_x, self._base_x = GridConvolutionKit._component(
            x_dist, los[0], his[0], h)
        pmf_y, self._base_y = GridConvolutionKit._component(
            y_dist, los[1], his[1], h)
        self._pow_x = self._powers(pmf_x, m_x)
        self._pow_y = self._powers(pmf_y, m_y)

    @staticmethod
    def _powers(pmf, m):
        out = [np.array([1.0])]
        for _ in range(m):
            out.append(np.convolve(out[-1], pmf))
        return out

    def _diff_pmf(self, pos_pmf, pos_base, neg_pmf, neg_base):
        pmf = np.convolve(pos_pmf, neg_pmf[::-1])
        lo = pos_base - (neg_base + self._h * (len(neg_pmf) - 1))
        return lo + self._h * np.arange(len(pmf)), pmf

    def theta(self) -> float:
        values, pmf = self._diff_pmf(
            self._pow_x[self.m_x], self.m_x * self._base_x,
            self._pow_y[self.m_y], self.m_y * self._base_y)
        return float(pmf[values > 0].sum())

    def mu11(self, a_x, a_y) -> float:
        vc, pc = self._diff_pmf(self._pow_x[a_x], a_x * self._base_x,
                                self._pow_y[a_y], a_y * self._base_y)
        fx, fy = self.m_x - a_x, self.m_y - a_y
        vd, pd = self._diff_pmf(self._pow_y[fy], fy * self._base_y,
                                self._pow_x[fx], fx * self._base_x)
        cdf_d = np.cumsum(pd)
        pos = np.searchsorted(vd, vc + self._h * 0.5) - 1
        fvals = np.where(pos >= 0, cdf_d[np.clip(pos, 0, len(cdf_d) - 1)], 0.0)
        return float(np.dot(pc, fvals ** 2))


# -- per-replication loops with one fresh substream each ------------------

def fresh_blocks(seed, lane, total):
    """A freshly built substream ``(seed, lane, b)`` for each block b of
    ``total`` units."""
    return (substream(seed, lane, b) for b, _, _ in block_ranges(total, BLOCK))


def damage_counts_oracle(data, t, r, seed, streams):
    """resample_damage_counts as a loop over blocks that draws block b from
    the b-th generator of ``streams`` and reads the counts off one
    realization matrix at a time."""
    n_a, n_b = data.n_a, data.n_b
    active = np.empty(r, dtype=np.intp)
    terminal = np.empty(r, dtype=np.intp)
    dur_overlap = 0.0
    perm_fixed = 0.0
    pairs = 0
    for (_, start, stop), rng in zip(block_ranges(r), streams):
        rows = stop - start
        perm = draw_distinct(rng, n_a, n_a, rows)
        tau = np.cumsum(data.h_a[perm], axis=1)
        which = draw_distinct(rng, n_b, n_a, rows)
        end = tau + data.h_b[which]
        active[start:stop] = ((tau <= t) & (t < end)).sum(axis=1)
        terminal[start:stop] = (end <= t).sum(axis=1)
        if rows >= 2:
            first, second = which[:2].tolist()
            dur_overlap += len(set(first) & set(second))
            perm_fixed += int((perm[0] == perm[1]).sum())
            pairs += 1
    nan = float("nan")
    return CountEstimates(
        t=float(t), r=r, seed=seed,
        active_mean=float(active.mean()),
        terminal_mean=float(terminal.mean()),
        active_pmf=np.bincount(active, minlength=n_a + 1) / r,
        terminal_pmf=np.bincount(terminal, minlength=n_a + 1) / r,
        diagnostics={
            "duration_overlap_mean": dur_overlap / pairs if pairs else nan,
            "arrival_fixed_points_mean": perm_fixed / pairs if pairs else nan,
            "pairs_inspected": pairs})


def damage_variance_oracle(truth, n_a, n_b, t, r, replications, seed):
    """damage_variance_mc as one loop over replications that builds a new
    substream for every replication's data and every block of its counts."""
    summ = poisson_truth(truth, t)
    estimates = np.empty(replications, dtype=float)
    overlap = np.empty(replications, dtype=float)
    fixed = np.empty(replications, dtype=float)
    for rep in range(replications):
        rng = substream(seed, Lane.DAMAGE_OUTER, rep)
        h_a = rng.exponential(1.0 / truth.rate, n_a)
        h_b = truth.degradation.sample(rng, n_b)
        inner_seed = int(rng.integers(0, 2 ** 62))
        est = damage_counts_oracle(
            DamageData(h_a, h_b), t, r, inner_seed,
            fresh_blocks(inner_seed, Lane.DAMAGE_RESAMPLE, r))
        estimates[rep] = est.active_mean
        overlap[rep] = est.diagnostics["duration_overlap_mean"]
        fixed[rep] = est.diagnostics["arrival_fixed_points_mean"]
    mean = float(estimates.mean())
    var = float(estimates.var(ddof=1))
    mse = float(np.mean((estimates - summ.active_mean) ** 2))
    return DamageMCReport(
        t=float(t), n_a=n_a, n_b=n_b, r=r, replications=replications,
        truth_active_mean=summ.active_mean,
        estimate_mean=mean, estimate_var=var, estimate_mse=mse,
        mean_se=float(math.sqrt(var / replications)),
        diagnostics={
            "duration_overlap_mean": float(overlap.mean()),
            "arrival_fixed_points_mean": float(fixed.mean()),
        })


def plugin_variance_oracle(truth, n_a, n_b, t, replications, seed):
    """plugin_variance_mc with a new substream and a plug-in fit per
    replication."""
    summ = poisson_truth(truth, t)
    estimates = np.empty(replications, dtype=float)
    for rep in range(replications):
        rng = substream(seed, Lane.DAMAGE_OUTER, rep)
        h_a = rng.exponential(1.0 / truth.rate, n_a)
        h_b = truth.degradation.sample(rng, n_b)
        data = DamageData(h_a, h_b)
        total = float(data.h_a.sum())
        rate = data.n_a / total if total > 0.0 else math.inf
        if math.isinf(rate):
            raise ValueError("the plug-in rate n_A / sum(H_A) is infinite: "
                             f"the inter-arrival times sum to {total!r}")
        estimates[rep] = rate * float(np.minimum(data.h_b, t).mean())
    mean = float(estimates.mean())
    var = float(estimates.var(ddof=1))
    mse = float(np.mean((estimates - summ.active_mean) ** 2))
    return PluginMCReport(
        t=float(t), n_a=n_a, n_b=n_b, replications=replications,
        truth_active_mean=summ.active_mean, estimate_mean=mean,
        estimate_var=var, estimate_mse=mse,
        mean_se=float(math.sqrt(var / replications)))


def plugin_baseline_oracle(lay, x_dist, y_dist, r, replications, seed,
                           theta):
    """renewal.plugin_baseline on a RenewalLayout with a given theta, with a
    new substream per replication."""
    estimates = np.empty(replications)
    for rep in range(replications):
        rng = substream(seed, Lane.RENEWAL_PLUGIN, rep)
        h_x = x_dist.sample(rng, lay.n_x)
        h_y = y_dist.sample(rng, lay.n_y)
        ix = rng.integers(0, lay.n_x, size=(r, lay.m_x))
        dx = h_x[ix].sum(axis=1)
        if lay.m_y > 0:
            iy = rng.integers(0, lay.n_y, size=(r, lay.m_y))
            sy = h_y[iy].sum(axis=1)
        else:
            sy = np.zeros(r)
        estimates[rep] = float((dx > sy).mean())
    mean = float(estimates.mean())
    var = float(estimates.var(ddof=1))
    return PluginReport(theta=float(theta), estimate_mean=mean, variance=var,
                        bias=mean - theta,
                        mse=float(np.mean((estimates - theta) ** 2)),
                        mean_se=float(math.sqrt(var / replications)),
                        replications=replications, r=r)


# -- seeded estimates as per-block loops over index rows ------------------

def estimate_result_oracle(values, seed) -> EstimateResult:
    """EstimateResult from numpy's own ``mean`` and ddof=1 ``var``."""
    var = float(np.var(values, ddof=1)) if len(values) > 1 else 0.0
    return EstimateResult(estimate=float(values.mean()),
                          realizations=len(values), seed=seed,
                          empirical_variance=var)


def draw_values_oracle(samples, rows, rng) -> np.ndarray:
    """draw_values with one ``distinct_codes`` call per block, in block
    order, and each block's outcomes gathered from its column; (m, rows)."""
    out = np.empty((samples.m, rows))
    for b in samples.blocks:
        n, k = b.size, b.draw_count
        picked = distinct_outcomes(n, k, distinct_codes(rng, n, k, rows))
        column = samples.columns[b.sample_index]
        for pos, a in enumerate(b.args):
            out[a - 1] = column[picked[:, pos]]
    return out


def index_row_blocks(samples, r, streams):
    """``(start, stop, rng, X)`` per block of ``r`` realizations: block b
    draws its index rows with ``draw_index_batch`` from the b-th generator
    of ``streams``, and ``values_matrix`` gathers them into X, (rows, m)."""
    for (_, start, stop), rng in zip(block_ranges(r), streams):
        idx = draw_index_batch(samples, stop - start, rng)
        yield start, stop, rng, samples.values_matrix(idx)


def estimate_theta_oracle(spec, samples, r, seed) -> EstimateResult:
    """estimate_theta(r, seed) with index rows and ``evaluate_batch``."""
    values = np.empty(r)
    for start, stop, _, X in index_row_blocks(
            samples, r, fresh_blocks(seed, Lane.SIMPLE_ESTIMATE, r)):
        values[start:stop] = evaluate_batch(spec, X)
    return estimate_result_oracle(values, seed)


def known_g_oracle(g, samples, r, seed, vectorized) -> EstimateResult:
    """estimate_known_g with index rows; g sees each block's value rows."""
    values = np.empty(r)
    for start, stop, _, X in index_row_blocks(
            samples, r, fresh_blocks(seed, Lane.KNOWN_G, r)):
        if vectorized:
            values[start:stop] = np.asarray(g(X), dtype=float)
        else:
            values[start:stop] = [float(g(row)) for row in X]
    return estimate_result_oracle(values, seed)


def inner_mc_oracle(spec, samples, z_dists, N, r, seed,
                    rows_chunk: int = 1 << 19) -> EstimateResult:
    """estimate_inner_mc with index rows: each block's Z draws follow its
    index rows, ``rows_chunk // N`` realizations at a time."""
    m, nu = samples.m, len(z_dists)
    values = np.empty(r)
    rows_per = max(1, rows_chunk // N)
    for start, stop, rng, X in index_row_blocks(
            samples, r, fresh_blocks(seed, Lane.INNER_MC, r)):
        for lo in range(0, stop - start, rows_per):
            hi = min(lo + rows_per, stop - start)
            rows = hi - lo
            full = np.empty((rows, N, m + nu))
            full[:, :, :m] = X[lo:hi, None, :]
            for z, d in enumerate(z_dists):
                full[:, :, m + z] = d.sample(rng, (rows, N))
            vals = evaluate_batch(spec, full.reshape(rows * N, m + nu))
            values[start + lo:start + hi] = vals.reshape(rows, N).mean(axis=1)
    return estimate_result_oracle(values, seed)


def resampling_interval_oracle(func, samples, gamma, k, r,
                               seed) -> IntervalResult:
    """resampling_interval with index rows; experiment e, block b draws
    from a fresh substream (seed, lane, e, b)."""
    estimates = np.empty(k)
    for e in range(k):
        streams = (substream(seed, Lane.COVERAGE_INTERVAL, e, b)
                   for b, _, _ in block_ranges(r))
        values = np.empty(r)
        for start, stop, _, X in index_row_blocks(samples, r, streams):
            values[start:stop] = evaluate_batch(func.spec, X)
        estimates[e] = values.mean()
    a = float(np.sort(estimates)[alpha_floor(1.0 - gamma, k) - 1])
    return IntervalResult(a=a, interval=(a, 1.0), gamma=gamma, k=k, r=r,
                          estimates=tuple(float(x) for x in estimates))


# -- hierarchical cascades, one loop per estimator ------------------------

def _node_blocks(seed, lane, nid, n_v):
    """``(start, stop, rng)`` per block of node ``nid``'s ``n_v`` elements,
    each from a freshly built substream ``(seed, lane, nid, b)``."""
    for b, start, stop in block_ranges(n_v, BLOCK):
        yield start, stop, substream(seed, lane, nid, b)


def _element_oracle(node, kids, nid, n_v, store, enumerated, seed):
    """One node's sample in the cascade: every child combination once when
    ``enumerated``, else one pick of each child per row."""
    if enumerated:
        counts = [len(store[c]) for c in kids]
        combos = itertools.product(*(range(cnt) for cnt in counts))
        idx = np.array(list(combos)).reshape(n_v, len(kids))
        cols = [store[c][idx[:, j]] for j, c in enumerate(kids)]
        return np.asarray(elementary_apply(node, cols), dtype=float)
    out = np.empty(n_v)
    for start, stop, rng in _node_blocks(seed, Lane.WAVE, nid, n_v):
        cols = [store[c][rng.integers(0, len(store[c]), size=stop - start)]
                for c in kids]
        out[start:stop] = elementary_apply(node, cols)
    return out


def _enumerated(spec, sizes, m) -> set:
    """The nodes sized to the product of their children's sizes, all of
    them leaves or enumerated; leaves count as enumerated."""
    done = set(range(1, m + 1))
    for nid, _, kids in spec.table:
        if kids and all(c in done for c in kids) and int(sizes[nid]) \
                == math.prod(int(sizes[c]) for c in kids):
            done.add(nid)
    return done


def wave_oracle(spec, samples, sizes, seed) -> EstimateResult:
    """wave_estimate as a loop over the spec's table: a node sized to the
    product of its children's sizes, all leaves or enumerated, lists every
    child combination; any other node picks one element of each child per
    row."""
    store = {i: samples.values_for_arg(i) for i in range(1, spec.m + 1)}
    sizes = dict(sizes) | {i: len(v) for i, v in store.items()}
    enumerated = _enumerated(spec, sizes, spec.m)
    for nid, node, kids in spec.table:
        if kids:
            store[nid] = _element_oracle(node, kids, nid, int(sizes[nid]),
                                         store, nid in enumerated, seed)
    root = store[spec.root_id]
    return dataclasses.replace(estimate_result_oracle(root, seed), values=root)


def _above_chance(node, shares) -> Fraction:
    """The chance that a ``min``, ``max`` or ``kofn`` is above its level
    when child i is above with chance ``shares[i]``, independently: the sum
    over every subset of children above."""
    need = {Min: len(shares), Max: 1}.get(type(node), getattr(node, "k", 0))
    return sum((math.prod(p if up else 1 - p for p, up in zip(shares, ups))
                for ups in itertools.product((False, True), repeat=len(shares))
                if sum(ups) >= need), Fraction(0))


def wave_count_oracle(spec, samples, sizes, seed) -> EstimateResult:
    """wave_estimate on counts, as a loop over the spec's table.  A node of
    the class map, or an ``ind`` over one, is a count: given its children
    its elements are i.i.d., above the level (or 1) with a chance q, so it
    is q n_v when enumerated, else one binomial draw of n_v at q off the
    stream (seed, wave lane, node, 0).  q is an exact fraction: summed over
    the subsets of children above for ``min``, ``max`` and ``kofn``, the
    child's share for an ``ind``, the share of grid cells above for a node
    of data leaves whose grid has at most n_v cells.  Any other node of the
    map counts its sampled classes.  An ``ind`` outside the map is
    shuffled into a 0/1 sample off the same stream; every other node is
    sampled as in :func:`wave_oracle`."""
    m, levels = spec.m, spec.class_levels
    store = {i: samples.values_for_arg(i) for i in range(1, m + 1)}
    sizes = dict(sizes) | {i: len(v) for i, v in store.items()}
    enumerated = _enumerated(spec, sizes, m)
    above = {i: int(np.sum(store[i] > levels[i])) for i in store
             if i in levels}
    for nid, node, kids in spec.table:
        if not kids:
            continue
        n_v = int(sizes[nid])
        over_class = isinstance(node, Threshold) and kids[0] in levels
        if not (nid in levels or over_class):
            store[nid] = _element_oracle(node, kids, nid, n_v, store,
                                         nid in enumerated, seed)
            continue
        q = None
        if isinstance(node, (Min, Max, KOfN)):
            q = _above_chance(node, [Fraction(above[c], int(sizes[c]))
                                     for c in kids])
        elif over_class:
            q = Fraction(above[kids[0]], int(sizes[kids[0]]))
            q = q if node.op == ">" else 1 - q
        elif all(c <= m for c in kids) \
                and math.prod(len(store[c]) for c in kids) <= n_v:
            cells = [float(elementary_apply(node, [np.array([x])
                                                   for x in row])[0])
                     for row in itertools.product(*(store[c] for c in kids))]
            q = Fraction(sum(v > levels[nid] for v in cells), len(cells))
        if q is None:
            values = _element_oracle(node, kids, nid, n_v, store,
                                     nid in enumerated, seed)
            above[nid] = int(np.sum(values > levels[nid]))
            continue
        rng = substream(seed, Lane.WAVE, nid, 0)
        count = int(q * n_v) if nid in enumerated \
            else int(rng.binomial(n_v, float(q)))
        if nid in levels:
            above[nid] = count if not over_class else \
                count * (1 > levels[nid]) + (n_v - count) * (0 > levels[nid])
            continue
        values = np.zeros(n_v)
        values[:count] = 1.0
        rng.shuffle(values)
        store[nid] = values
        if nid == spec.root_id:
            return EstimateResult(
                estimate=count / n_v, realizations=n_v, seed=seed,
                empirical_variance=float(Fraction(count * (n_v - count),
                                                  n_v * (n_v - 1)))
                if n_v > 1 else 0.0, values=values)
    root = store[spec.root_id]
    return dataclasses.replace(estimate_result_oracle(root, seed), values=root)


def vector_wave_oracle(spec, samples, z_dists, N, sizes,
                       seed) -> EstimateResult:
    """wave_estimate_vector_samples as a loop that samples every internal
    node: a data leaf is picked per row and repeated over the N slots, a
    Z leaf drawn fresh per row and slot, an internal child picked per row."""
    m = samples.m
    store = {}
    for nid, node, kids in spec.table:
        if not kids:
            continue
        n_v = int(sizes[nid])
        out = np.empty((n_v, N))
        for start, stop, rng in _node_blocks(seed, Lane.VECTOR_WAVE, nid,
                                             n_v):
            rows = stop - start
            cols = []
            for c in kids:
                child = spec.node_ids[c]
                if isinstance(child, Input) and child.index <= m:
                    src = samples.values_for_arg(child.index)
                    idx = rng.integers(0, len(src), size=rows)
                    cols.append(np.broadcast_to(src[idx][:, None], (rows, N)))
                elif isinstance(child, Input):
                    cols.append(z_dists[child.index - m - 1].sample(
                        rng, (rows, N)))
                else:
                    idx = rng.integers(0, len(store[c]), size=rows)
                    cols.append(store[c][idx])
            out[start:stop] = elementary_apply(node, cols)
        store[nid] = out
    root = store[spec.root_id]
    per_element = root.mean(axis=1)
    var = float(np.var(per_element, ddof=1)) if len(per_element) > 1 else 0.0
    return EstimateResult(estimate=float(root.mean()),
                          realizations=root.shape[0], seed=seed,
                          empirical_variance=var, values=per_element)


# -- memory ----------------------------------------------------------------

def peak_bytes(fn) -> int:
    """Peak memory, in bytes, that one call of ``fn`` holds at once, as
    ``tracemalloc`` sees it (numpy reports its array data there).  ``fn``
    runs once untraced first, so caches it fills are not counted."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
