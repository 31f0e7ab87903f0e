"""Structure-function specs: a small expression tree over sample arguments.

Grammar (whitespace-insensitive)::

    node  := INPUT
           | "min(" nodes ")" | "max(" nodes ")" | "sum(" nodes ")"
           | "kofn(" INT ";" nodes ")"
           | "ind(" node ("<"|">") VALUE ")"
           | "cmp(" node ("<"|">") node ")"
    nodes := node ("," node)*
    INPUT := "x" INT          (1-based argument position)
    VALUE := REAL | parameter name bound at parse time

``kofn(k; ...)`` takes the k-th largest child value, which for indicator
children coincides with "at least k children are 1".  ``ind`` maps a value
to {0, 1} against a fixed level; ``cmp`` compares two subtree values.  Ties
resolve as "not greater": ``> `` is strict, ``<`` includes equality.

Every input ``x1..xm`` must occur exactly once, so argument positions map
one-to-one onto draw slots.  Nodes are numbered post-order: leaves carry
their input index 1..m, internal nodes m+1..K with the root last.

One value-stack loop over that table evaluates the system:
:func:`evaluate_batch` feeds it the columns of a row matrix, and
:func:`evaluate_grid` feeds it leaves that each broadcast along one axis
of a product grid, so every node is computed over the axes it depends on.
:func:`count_walk` counts instead: up a ``min``/``max``/``kofn`` tree, the
index combinations that put each node at or below a point.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache, reduce
from types import MappingProxyType

import numpy as np

__all__ = [
    "SystemSyntaxError", "SystemValidationError",
    "Input", "Min", "Max", "Sum", "KOfN", "Threshold", "Compare",
    "SystemSpec", "parse_system", "evaluate", "evaluate_batch",
    "evaluate_grid", "leaf_dependencies", "class_levels", "count_walk",
    "ClassLattice", "elementary_apply", "render",
]


class SystemSyntaxError(ValueError):
    """Spec text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class SystemValidationError(ValueError):
    """Structurally invalid system (bad leaf set, bad k-of-n, shared subtree)."""


# -- node types -----------------------------------------------------------

@dataclass(frozen=True)
class Input:
    index: int  # 1-based argument position


class _Operator:
    """Structural ``==``, ``hash`` and ``repr`` for the operator nodes.

    Each walks the tree on an explicit stack, so a tree of any depth can be
    compared, hashed and printed; the dataclass versions recurse through
    the children.  Equality and hash follow the dataclass semantics: two
    nodes are equal when they have the same class and equal fields.
    """

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _tokens(self) == _tokens(other)

    def __hash__(self):
        return hash(tuple(_tokens(self)))

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            parts = [type(item).__name__, "("]
            for i, f in enumerate(fields(item)):
                value = getattr(item, f.name)
                parts.append(f"{', ' if i else ''}{f.name}=")
                if type(value) is tuple:
                    parts.append("(")
                    for j, child in enumerate(value):
                        parts += [", "] * (j > 0) + [_text(child)]
                    parts.append(",)" if len(value) == 1 else ")")
                else:
                    parts.append(_text(value))
            parts.append(")")
            stack.extend(reversed(parts))
        return "".join(out)


def _text(value):
    """An operator node to expand later, or the repr of anything else."""
    return value if isinstance(value, _Operator) else repr(value)


def _tokens(root) -> list:
    """The tree under ``root`` spelled out in pre-order: each operator node
    gives its class and then its fields, and a tuple gives ``tuple``, its
    length and its items; any other value is a token itself."""
    out, stack = [], [root]
    while stack:
        item = stack.pop()
        if isinstance(item, _Operator):
            out.append(type(item))
            stack.extend(getattr(item, f.name) for f in reversed(fields(item)))
        elif type(item) is tuple:
            out += [tuple, len(item)]
            stack.extend(reversed(item))
        else:
            out.append(item)
    return out


@dataclass(frozen=True, eq=False, repr=False)
class Min(_Operator):
    children: tuple


@dataclass(frozen=True, eq=False, repr=False)
class Max(_Operator):
    children: tuple


@dataclass(frozen=True, eq=False, repr=False)
class Sum(_Operator):
    children: tuple


@dataclass(frozen=True, eq=False, repr=False)
class KOfN(_Operator):
    k: int
    children: tuple


@dataclass(frozen=True, eq=False, repr=False)
class Threshold(_Operator):
    child: object
    op: str  # "<" or ">"
    level: float


@dataclass(frozen=True, eq=False, repr=False)
class Compare(_Operator):
    left: object
    op: str  # "<" or ">"
    right: object


def children_of(node) -> tuple:
    if isinstance(node, Input):
        return ()
    if isinstance(node, (Min, Max, Sum, KOfN)):
        return node.children
    if isinstance(node, Threshold):
        return (node.child,)
    if isinstance(node, Compare):
        return (node.left, node.right)
    raise TypeError(f"not a system node: {node!r}")


def elementary_apply(node, child_values: list[np.ndarray]) -> np.ndarray:
    """Apply the node's own operator to per-child value arrays."""
    if isinstance(node, Min):
        return reduce(np.minimum, child_values)
    if isinstance(node, Max):
        return reduce(np.maximum, child_values)
    if isinstance(node, Sum):
        return reduce(np.add, child_values)
    if isinstance(node, KOfN):
        return _kth_largest(child_values, node.k)
    if isinstance(node, Threshold):
        v = child_values[0]
        out = (v > node.level) if node.op == ">" else (v <= node.level)
        return out.astype(float)
    if isinstance(node, Compare):
        a, b = child_values
        out = (a > b) if node.op == ">" else (a <= b)
        return out.astype(float)
    raise TypeError(f"node {node!r} has no elementary operator")


def _kth_largest(values: list[np.ndarray], k: int) -> np.ndarray:
    """Elementwise k-th largest of the arrays by compare-exchange passes.

    Each pass carries the running extreme down the list and drops it, so
    min(k, c - k + 1) passes suffice for c arrays: the k-th largest is the
    largest left after k - 1 maxima are dropped, or the smallest left after
    c - k minima are dropped.
    """
    passes = min(k, len(values) - k + 1)
    keep, carry = (np.minimum, np.maximum) if passes == k \
        else (np.maximum, np.minimum)
    for _ in range(passes - 1):
        rest, extreme = [], values[0]
        for v in values[1:-1]:
            rest.append(keep(extreme, v))
            extreme = carry(extreme, v)
        values = rest + [keep(extreme, values[-1])]
    return reduce(carry, values)


def _node_values(node, cols: list, classes_in: bool, level):
    """A node's values from its children's columns, or its classes
    [v > level] when it has a level; ``classes_in`` says that the columns
    hold the children's classes.  These are the class rules of the
    threshold-class map (:func:`class_levels`)."""
    if not classes_in:
        values = elementary_apply(node, cols)
    elif isinstance(node, Threshold):
        values = cols[0] if node.op == ">" else ~cols[0]
    else:
        # min, max and the k-th largest of classes: all, any, at least k
        return elementary_apply(node, cols)
    return values if level is None else values > level


# -- spec object ----------------------------------------------------------

def _post_order(root) -> list:
    """The nodes under ``root`` in post-order, children left to right: a
    pre-order walk that takes the last child first, reversed."""
    order, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            raise SystemValidationError(
                "node object appears twice; the system must be a tree")
        seen.add(id(node))
        order.append(node)
        stack.extend(children_of(node))
    order.reverse()
    return order


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """A validated structure function with post-order node numbering.

    ``table`` is the compiled tree: one ``(node id, node, child ids)`` entry
    per node in post-order, root last.  Every walk over the tree reads it.
    A subtree is one contiguous slice of the table, so its leaves are one
    contiguous run of the leaves in table order: ``leaf_deps`` keeps that
    order once plus the bounds of each node's run, and slices a node's
    leaves out when asked.

    ``class_levels`` is the threshold-class map of :func:`class_levels`
    with every argument finite, as data samples are.

    A spec is read-only all the way down, so :func:`parse_system` can hand
    the same object to every caller that parses the same text and values.
    """

    root: object
    m: int = field(init=False)
    table: tuple = field(init=False, repr=False)     # post-order (id, node, kids)
    node_ids: Mapping = field(init=False, repr=False)   # node id -> node
    leaf_deps: Mapping = field(init=False, repr=False)  # id -> frozenset of args
    class_levels: Mapping = field(init=False, repr=False)  # id -> level L

    def __post_init__(self):
        order = _post_order(self.root)
        indices = sorted(n.index for n in order if isinstance(n, Input))
        m = len(indices)
        if indices != list(range(1, m + 1)):
            raise SystemValidationError(
                f"leaf set must be exactly x1..x{m} with no repeats, "
                f"got {['x%d' % i for i in indices]}")
        table = []
        stack: list[int] = []  # ids of finished subtrees awaiting a parent
        leaves: list[int] = []  # leaf ids in table order
        spans: dict[int, tuple[int, int]] = {}  # node id -> its run of leaves
        next_internal = m + 1
        for n in order:
            if isinstance(n, Input):
                nid, kids = n.index, ()
                spans[nid] = (len(leaves), len(leaves) + 1)
                leaves.append(nid)
            else:
                arity = len(children_of(n))
                if isinstance(n, KOfN) and not 1 <= n.k <= arity:
                    raise SystemValidationError(
                        f"kofn needs 1 <= k <= {arity} children, got k={n.k}")
                if not arity:
                    raise SystemValidationError("operator node with no children")
                if isinstance(n, Threshold) and math.isnan(n.level):
                    raise SystemValidationError("threshold level is NaN")
                nid, next_internal = next_internal, next_internal + 1
                cut = len(stack) - arity
                kids, stack[cut:] = tuple(stack[cut:]), []
                spans[nid] = (spans[kids[0]][0], len(leaves))
            stack.append(nid)
            table.append((nid, n, kids))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "table", tuple(table))
        object.__setattr__(self, "node_ids", MappingProxyType(
            {nid: n for nid, n, _ in table}))
        object.__setattr__(self, "leaf_deps", _LeafDeps(tuple(leaves), spans))
        object.__setattr__(self, "class_levels", MappingProxyType(
            class_levels(self.table)))

    @property
    def root_id(self) -> int:
        return self.table[-1][0]

    @cached_property
    def class_lattice(self) -> "ClassLattice | None":
        """The :class:`ClassLattice` of an ``ind`` root whose child is in
        ``class_levels``, else None; made on first use and kept."""
        _, root, kids = self.table[-1]
        if not isinstance(root, Threshold) or kids[0] not in self.class_levels:
            return None
        return ClassLattice(self.table, self.class_levels[kids[0]],
                            self.leaf_deps)

    @cached_property
    def _positions(self) -> dict:
        return {entry[0]: i for i, entry in enumerate(self.table)}

    def subtree(self, node_id: int) -> tuple:
        """The entries of ``table`` for the subtree under ``node_id``: a
        contiguous slice that ends at the node's own entry."""
        stop = self._positions[node_id] + 1
        start, open_ = stop, 1  # entries still to take
        while open_:
            start -= 1
            open_ += len(self.table[start][2]) - 1
        return self.table[start:stop]

    def __repr__(self):
        return f"SystemSpec({render(self.root)})"


class _LeafDeps(Mapping):
    """Node id -> frozenset of the argument positions under the node, sliced
    out of the leaves in table order when asked, so a lookup costs the size
    of the set it returns."""

    def __init__(self, leaves: tuple, spans: dict):
        self._leaves = leaves
        self._spans = spans

    def __getitem__(self, node_id: int) -> frozenset:
        start, stop = self._spans[node_id]
        return frozenset(self._leaves[start:stop])

    def __iter__(self):
        return iter(self._spans)

    def __len__(self) -> int:
        return len(self._spans)


def class_levels(table, unbounded=()) -> dict[int, float]:
    """Node id -> level L of every node that an ``ind`` reads only through
    its class u = [v > L], for a spec's ``table``.

    Those are the child of an ``ind`` with level L, every node reached from
    it down through ``min``, ``max`` and ``kofn`` only, and the children
    where that run stops.  Min, max and the k-th largest commute with the
    monotone map v -> [v > L] (Barlow & Proschan 1975), so such a node's
    class follows from its children's: all, any, or at least k of them
    above L.  The ``ind`` gives u for ``>`` and not u for ``<``.

    NaN is neither above L nor at most L, so a region in which a value
    could be NaN is left out.  Arguments are taken as finite apart from
    those in ``unbounded``; only a sum makes a NaN, where a partial sum that
    could be infinite meets a child that could be.
    """
    infinite = set(unbounded)  # nodes whose values could be infinite
    nan = set()  # nodes whose values could be NaN
    for nid, node, kids in table:
        if not kids or isinstance(node, (Threshold, Compare)):
            continue  # a leaf is as unbounded says; ind and cmp give 0 or 1
        if not nan.isdisjoint(kids):
            nan.add(nid)
        if not infinite.isdisjoint(kids):
            infinite.add(nid)
        if isinstance(node, Sum) and len(kids) > 1:
            # after two terms the partial sum may overflow
            if kids[0] in infinite and kids[1] in infinite \
                    or not infinite.isdisjoint(kids[2:]):
                nan.add(nid)
            infinite.add(nid)
    levels: dict[int, float] = {}
    for nid, node, kids in reversed(table):  # every parent before its kids
        if isinstance(node, Threshold):
            if kids[0] not in nan:
                levels[kids[0]] = node.level
        elif nid in levels and isinstance(node, (Min, Max, KOfN)):
            levels.update(dict.fromkeys(kids, levels[nid]))
    return levels


def count_walk(entries, leaves):
    """Count up a ``min``/``max``/``kofn`` tree: per node, G of its
    ``cells`` index combinations put it at or below a point.  ``entries``
    are the tree's post-order ``(id, node, kids)``, a ``cmp`` or ``ind``
    root last; ``leaves[v] = (G, cells)`` gives each node v of another
    kind, where the walk stops.  Children read disjoint leaves: a max is
    at or below when all are, a min unless all are above, the k-th largest
    when fewer than k are above (David and Nagaraja, 2003).  Arrays
    broadcast; Python ints stay exact.  Returns the root's children's
    ``(G, cells)``, reversed for ``<``: the side larger when the root is 1
    first."""
    stack = []
    for nid, node, kids in entries[:-1]:
        if not isinstance(node, (Min, Max, KOfN)):
            stack.append(leaves[nid])
            continue
        cut = len(stack) - len(kids)
        args, stack[cut:] = stack[cut:], []
        cells = math.prod([t for _, t in args])
        if isinstance(node, Max):
            g = reduce(operator.mul, [c for c, _ in args])
        elif isinstance(node, Min):
            g = cells - reduce(operator.mul, [t - c for c, t in args])
        else:  # ways[j]: the combinations with j children above
            ways = [1] + [0] * (node.k - 1)
            for c, t in args:
                ways = [ways[0] * c] + [ways[j] * c + ways[j - 1] * (t - c)
                                        for j in range(1, node.k)]
            g = sum(ways)
        stack.append((g, cells))
    return stack if entries[-1][1].op == ">" else stack[::-1]


class ClassLattice:
    """The root ``ind``'s system on the classes of its boundary nodes.

    The region of the root's level L in the class map runs from the root's
    child down through ``min``, ``max`` and ``kofn``; its boundary nodes,
    ``boundary`` in ascending id order, are the members that are none of
    these: data leaves, sums, comparisons and inner indicators.  The
    system's value depends on the arguments only through the classes
    b_v = [v > L] of those nodes, so :meth:`hits` is one :func:`count_walk`
    over the region, and ``phi``, its 0/1 value on the 2^B lattice of
    classes (axis j for ``boundary[j]``, index 0 at most L and 1 above it;
    made on first use), the same walk on class indicators.
    ``owner[a - 1]`` is the axis of the boundary node above argument a.
    """

    def __init__(self, table, level: float, leaf_deps: Mapping):
        self.level = level
        region, boundary = {table[-1][2][0]}, []
        for nid, node, kids in reversed(table):  # every parent before its kids
            if nid in region:
                if isinstance(node, (Min, Max, KOfN)):
                    region.update(kids)
                else:
                    boundary.append(nid)
        self.boundary = tuple(sorted(boundary))
        owner = {a: j for j, v in enumerate(self.boundary)
                 for a in leaf_deps[v]}
        self.owner = tuple(owner[a] for a in sorted(owner))
        self._entries = tuple(e for e in table if e[0] in region) + table[-1:]

    @cached_property
    def phi(self) -> np.ndarray:
        classes = np.indices((2,) * len(self.boundary))  # b_j along axis j
        phi = self.hits([(1 - b, b) for b in classes])
        phi.flags.writeable = False
        return phi

    def hits(self, counts) -> int:
        """The grid cells at which the system is 1, for ``counts[j]`` the
        cells (at most L, above L) of axis j's node grid: sum_b phi(b)
        prod_j counts[j][b_j], exact in Python ints."""
        ((g, cells),) = count_walk(self._entries, {
            v: (lo, lo + hi) for v, (lo, hi) in zip(self.boundary, counts)})
        return cells - g if self._entries[-1][1].op == ">" else g


def leaf_dependencies(spec: SystemSpec, node_id: int) -> frozenset:
    """Set of 1-based argument positions feeding the given node."""
    try:
        return spec.leaf_deps[node_id]
    except KeyError:
        raise SystemValidationError(f"no node with id {node_id}") from None


# -- evaluation -----------------------------------------------------------

# cells per flat array handed out by evaluate_grid
GRID_CHUNK = 100_000


def _run_table(table, leaves) -> np.ndarray:
    """The post-order value-stack loop over a spec's ``table`` or a subtree
    of it: ``leaves[i]`` holds the values of argument i+1, and a node
    replaces its children's arrays on the stack by its own.  Arrays
    broadcast, so a node spans the axes of its leaves."""
    stack: list[np.ndarray] = []
    for _, node, kids in table:
        if isinstance(node, Input):
            stack.append(leaves[node.index - 1])
        else:
            cut = len(stack) - len(kids)
            stack[cut:] = [elementary_apply(node, stack[cut:])]
    return stack[0]


def evaluate_batch(spec: SystemSpec, X) -> np.ndarray:
    """Evaluate the system on rows of ``X`` (shape (N, m)); returns (N,)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != spec.m:
        raise ValueError(f"expected {spec.m} argument columns, got {X.shape[1]}")
    return _run_table(spec.table, X.T)


def evaluate_grid(spec: SystemSpec, leaves, dims, node: int | None = None):
    """Yield the system's values over a product grid, flat in C order; with
    ``node``, the values of the subtree under that node id.

    ``dims`` are the axis lengths and ``leaves[i] = (axis, values)`` says
    that argument i+1 takes ``values[p]`` at position p of that axis (None
    for an argument outside the subtree evaluated).  Each
    leaf is shaped to broadcast along its own axis only, so a node is
    computed over the axes its leaves span and only nodes over every axis
    reach full size.  The grid is evaluated in slabs: a run of positions of
    the leading axes times every position of the trailing axes, at most
    ``GRID_CHUNK`` cells.  The values come out re-cut into arrays of
    ``GRID_CHUNK`` cells, the last one shorter.
    """
    if len(leaves) != spec.m:
        raise ValueError(f"expected {spec.m} leaves, got {len(leaves)}")
    chunk = GRID_CHUNK
    dims = tuple(int(d) for d in dims)
    split, inner = len(dims), 1  # axes split.. are trailing, inner cells
    while split and inner * dims[split - 1] <= chunk:
        split -= 1
        inner *= dims[split]
    lead, tail = dims[:split], dims[split:]
    table = spec.table if node is None else spec.subtree(node)
    cols = [None] * spec.m
    gathered = []
    for i, leaf in enumerate(leaves):
        if leaf is None:
            continue
        axis, values = leaf
        values = np.asarray(values, dtype=float)
        if axis >= split:
            shape = [1] * (1 + len(tail))
            shape[1 + axis - split] = dims[axis]
            cols[i] = values.reshape(shape)
        else:
            gathered.append((i, axis, values))
    step = max(1, chunk // inner)
    outer = math.prod(lead)

    def slabs():
        for lo in range(0, outer, step):
            hi = min(lo + step, outer)
            if gathered:
                pos = np.unravel_index(np.arange(lo, hi), lead)
            for i, axis, values in gathered:
                cols[i] = values[pos[axis]].reshape((hi - lo,) + (1,) * len(tail))
            out = _run_table(table, cols)
            if out.shape != (hi - lo,) + tail:  # misses an axis
                out = np.broadcast_to(out, (hi - lo,) + tail)
            yield out.reshape(-1)

    return _recut(slabs(), chunk)


def _recut(pieces, chunk: int):
    """Re-cut a stream of flat arrays into arrays of ``chunk`` cells."""
    held, size = [], 0
    for piece in pieces:
        while size + len(piece) >= chunk:
            cut = chunk - size
            held.append(piece[:cut])
            piece = piece[cut:]
            yield held[0] if len(held) == 1 else np.concatenate(held)
            held, size = [], 0
        if len(piece):
            held.append(piece)
            size += len(piece)
    if held:
        yield held[0] if len(held) == 1 else np.concatenate(held)


def evaluate(spec: SystemSpec, x) -> float:
    """Evaluate the system on one argument vector."""
    return float(evaluate_batch(spec, np.asarray(x, dtype=float)[None, :])[0])


# -- parsing --------------------------------------------------------------

# No two kinds start with the same character, so the order of the
# alternatives only sets how soon a match is found: the common kinds first.
_TOKEN = re.compile(r"""
    \s*(?:
    (?P<sym>[(),;<>])
    |(?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    |(?P<num>[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
    |(?P<bad>\S)
    )""", re.VERBOSE)
_INPUT = re.compile(r"x([1-9]\d*)")
_INTEGER = re.compile(r"\d+")
# a name right after a relation: the only place the parser reads params
_LEVEL_NAME = re.compile(r"[<>]\s*([A-Za-z_][A-Za-z_0-9]*)")


class _Parser:
    """Reads the text's tokens, cut once by one ``finditer``, in order.

    Each token is ``(kind, text, end)``; a ``bad`` token is a character no
    token starts with, reported at its own position when the parser reaches
    it.  Other errors point at the end of the last token read (``pos``).
    """

    def __init__(self, text: str, params: dict | None):
        self.params = params or {}
        self.tokens = [(m.lastgroup, m[m.lastgroup], m.end())
                       for m in _TOKEN.finditer(text)]
        self.tokens.append((None, None, None))  # end of input
        self.at = 0  # index of the next token
        self.pos = 0

    def error(self, message: str) -> SystemSyntaxError:
        return SystemSyntaxError(message, self.pos)

    def peek(self):
        kind, value, end = token = self.tokens[self.at]
        if kind == "bad":
            raise SystemSyntaxError(f"unexpected character {value!r}", end - 1)
        return token

    def next(self):
        kind, value, end = self.peek()
        if kind is None:
            raise self.error("unexpected end of input")
        self.at += 1
        self.pos = end
        return kind, value

    def expect_sym(self, sym: str):
        kind, value = self.next()
        if kind != "sym" or value != sym:
            raise self.error(f"expected {sym!r}, got {value!r}")

    def parse(self):
        """Read one node tree, keeping the open operators on a stack.

        A frame is ``[name, k or relation, children]``.  Each finished node
        goes to the innermost frame, which then waits for another child or
        closes and becomes the finished node of the frame below it.
        """
        frames: list[list] = []
        node = None
        while node is None:
            node = self.head(frames)
            while node is not None and frames:
                node = self.attach(frames, node)
        kind, value, _ = self.peek()
        if kind is not None:
            raise self.error(f"trailing input {value!r}")
        return node

    def head(self, frames: list):
        """Read a node's first tokens: return a leaf, or open a frame (None)."""
        kind, value = self.next()
        if kind != "ident":
            raise self.error(f"expected an operator or input, got {value!r}")
        if value in ("min", "max", "sum", "kofn", "ind", "cmp"):
            self.expect_sym("(")
            k = None
            if value == "kofn":
                k = self.integer("kofn count")
                self.expect_sym(";")
            frames.append([value, k, []])
            return None
        m = _INPUT.fullmatch(value)
        if m:
            return Input(int(m.group(1)))
        raise self.error(f"unknown input name {value!r} (inputs are x1, x2, ...)")

    def attach(self, frames: list, node):
        """Give a finished node to the innermost frame; return the frame's
        node once it closes, or None while it waits for another child."""
        name, arg, kids = frame = frames[-1]
        kids.append(node)
        if name == "ind":
            arg = (self.relation(), self.value("threshold level"))
        elif name == "cmp":
            if len(kids) == 1:
                frame[1] = self.relation()
                return None
        elif self.peek()[:2] == ("sym", ","):
            self.next()
            return None
        self.expect_sym(")")
        frames.pop()
        if name == "ind":
            return Threshold(kids[0], *arg)
        if name == "cmp":
            return Compare(kids[0], arg, kids[1])
        if name == "kofn":
            return KOfN(arg, tuple(kids))
        return {"min": Min, "max": Max, "sum": Sum}[name](tuple(kids))

    def relation(self) -> str:
        kind, value = self.next()
        if kind != "sym" or value not in ("<", ">"):
            raise self.error(f"expected '<' or '>', got {value!r}")
        return value

    def integer(self, what: str) -> int:
        kind, value = self.next()
        if kind != "num" or not _INTEGER.fullmatch(value):
            raise self.error(f"expected an integer {what}, got {value!r}")
        return int(value)

    def value(self, what: str) -> float:
        kind, value = self.next()
        if kind == "num":
            return float(value)
        if kind == "ident":
            if value in self.params:
                return float(self.params[value])
            raise self.error(f"unknown parameter {value!r} for {what}")
        raise self.error(f"expected a number or parameter for {what}")


def parse_system(text: str, params: dict | None = None) -> SystemSpec:
    """Parse grammar text into a validated :class:`SystemSpec`.

    Parameters
    ----------
    text : str
        Expression in the module grammar.
    params : dict, optional
        Named values usable in threshold positions, e.g. ``{"t": 1.0}``
        for ``ind(... < t)``.  Entries the text does not name are not read.

    Specs are read-only and cached: the same text with the same values of
    the parameters it names may return the same object.
    """
    try:
        bound = _bound_params(text, params)
    except Exception:
        # a named entry could not be read as a float: the uncached parse
        # raises that error where it reads the entry, or never reads it
        bound = None
    if bound is None:
        return _parse(text, params)
    return _parse_cached(text, bound)


def _bound_params(text, params):
    """The cache key's part from ``params``: ``(name, value, sign)`` of
    each entry the text may read as a level, as floats, so ``1``, ``1.0``
    and ``True`` share a key and ``-0.0`` and ``0.0`` do not.  None when
    the spec is not to be cached: text that is no string, or a NaN."""
    if type(text) is not str:
        return None
    if not params:
        return ()
    bound = []
    for name in dict.fromkeys(_LEVEL_NAME.findall(text)):
        if name in params:
            value = float(params[name])
            if math.isnan(value):
                return None
            bound.append((name, value, math.copysign(1.0, value)))
    return tuple(bound)


@lru_cache(maxsize=128)
def _parse_cached(text: str, bound: tuple) -> SystemSpec:
    """The one spec shared by every parse of ``text`` with these values."""
    return _parse(text, {name: value for name, value, _ in bound})


def _parse(text: str, params: dict | None) -> SystemSpec:
    return SystemSpec(_Parser(text, params).parse())


def render(node) -> str:
    """Render a node tree back to grammar text."""
    stack: list[str] = []
    for n in _post_order(node):
        cut = len(stack) - len(children_of(n))
        parts, stack[cut:] = stack[cut:], []
        if isinstance(n, Input):
            text = f"x{n.index}"
        elif isinstance(n, KOfN):
            text = f"kofn({n.k};{','.join(parts)})"
        elif isinstance(n, Threshold):
            text = f"ind({parts[0]}{n.op}{format(n.level, 'g')})"
        elif isinstance(n, Compare):
            text = f"cmp({parts[0]}{n.op}{parts[1]})"
        else:
            text = f"{type(n).__name__.lower()}({','.join(parts)})"
        stack.append(text)
    return stack[0]
