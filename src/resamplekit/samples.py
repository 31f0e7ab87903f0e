"""Sample sets: named data columns bound to system argument positions.

A structure function of ``m`` arguments draws its inputs from ``k <= m``
samples; arguments backed by the same sample form a *block* and are redrawn
jointly without replacement.  :class:`SampleSet` holds the named value
columns, the argument-to-sample binding, and the derived block layout.

Argument positions are 1-based (argument ``i`` corresponds to the grammar
leaf ``xi``); index vectors are 0-based positions into the backing columns.

The exact routes never build index vectors: they evaluate the structure
function on a grid with one axis per block, whose positions are the rows
of :func:`ordered_draws` (:func:`resampling.grid_values`).

The seeded estimators do not build index vectors either:
:attr:`SampleSet.draw_plan` holds, per block, what a value draw needs (the
block's (n, k) and, where the draw is tabulated, the values of every
outcome), grouped into runs of blocks whose codes one draw takes, and
:func:`resampling.draw_values` writes drawn values straight into an
argument matrix.  :meth:`SampleSet.values_matrix` gathers index
rows, for callers that hold them.  A sample set also keeps one slot for
repeated seeded estimates, which :func:`resampling._rank_table` fills.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import itertools
from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field

import numpy as np

from ._streams import _outcome_table, _table_size
from .budget import check_budget

__all__ = ["LayoutError", "InfeasibleLayoutError", "Block", "BlockLayout",
           "SampleSet", "ordered_draws"]


class LayoutError(ValueError):
    """Sample/argument binding is malformed."""


class InfeasibleLayoutError(LayoutError):
    """A block needs more distinct elements than its sample holds."""


@dataclass(frozen=True)
class Block:
    """Arguments sharing one backing sample.

    Attributes
    ----------
    sample_index : int
        Position of the backing sample within the sample set.
    args : tuple of int
        1-based argument positions in this block, ascending.
    size : int
        Number of elements in the backing sample (n_i).
    """

    sample_index: int
    args: tuple[int, ...]
    size: int

    @property
    def draw_count(self) -> int:
        """Number of arguments drawn from the sample (m_i)."""
        return len(self.args)


@dataclass(frozen=True)
class BlockLayout:
    """Block structure without data: argument groups plus sample sizes.

    Used where only the layout matters (pair probabilities, generator-mode
    variance).  ``block_args`` lists the 1-based argument positions of each
    block; ``block_sizes`` the backing sample sizes n_i.
    """

    block_args: tuple[tuple[int, ...], ...]
    block_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "block_args",
                           tuple(tuple(sorted(a)) for a in self.block_args))
        object.__setattr__(self, "block_sizes",
                           tuple(int(n) for n in self.block_sizes))
        if len(self.block_args) != len(self.block_sizes):
            raise LayoutError("one size per block required")
        flat = [a for args in self.block_args for a in args]
        m = len(flat)
        if sorted(flat) != list(range(1, m + 1)):
            raise LayoutError(
                f"block arguments must partition 1..m, got {self.block_args}")
        for args, n in zip(self.block_args, self.block_sizes):
            if n < 1:
                raise LayoutError(f"sample size must be positive, got {n}")
            if len(args) > n:
                raise InfeasibleLayoutError(
                    f"block {args} draws {len(args)} distinct elements "
                    f"from a sample of size {n}")

    @classmethod
    def singleton(cls, sizes) -> "BlockLayout":
        """One argument per block with the given sample sizes."""
        sizes = tuple(int(n) for n in sizes)
        return cls(tuple((i,) for i in range(1, len(sizes) + 1)), sizes)

    @classmethod
    def of(cls, samples: "SampleSet") -> "BlockLayout":
        return cls(tuple(b.args for b in samples.blocks),
                   tuple(b.size for b in samples.blocks))

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.block_args)

    @property
    def sizes(self) -> tuple[int, ...]:
        """Backing sample size per argument (length m)."""
        out = [0] * self.m
        for args, n in zip(self.block_args, self.block_sizes):
            for a in args:
                out[a - 1] = n
        return tuple(out)

    @property
    def singleton_blocks(self) -> bool:
        return all(len(a) == 1 for a in self.block_args)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Named samples plus the argument -> sample binding.

    Build with :meth:`from_samples`, :meth:`from_csv` or :meth:`from_json`
    rather than directly.
    """

    names: tuple[str, ...]
    columns: tuple[np.ndarray, ...]
    arg_to_sample: tuple[int, ...]  # 0-based sample position per argument
    blocks: tuple[Block, ...] = field(init=False)

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise LayoutError(f"duplicate sample names: {self.names}")
        if not self.names:
            raise LayoutError("at least one sample required")
        cols = []
        for name, col in zip(self.names, self.columns):
            arr = np.asarray(col, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise LayoutError(f"sample {name!r} must be a non-empty 1-d column")
            if not np.all(np.isfinite(arr)):
                raise LayoutError(f"sample {name!r} contains non-finite values")
            arr = arr.copy()
            arr.flags.writeable = False
            cols.append(arr)
        object.__setattr__(self, "columns", tuple(cols))
        if not self.arg_to_sample:
            raise LayoutError("at least one argument required")
        for s in self.arg_to_sample:
            if not 0 <= s < len(self.names):
                raise LayoutError(f"argument bound to unknown sample index {s}")
        used = set(self.arg_to_sample)
        unused = [self.names[i] for i in range(len(self.names)) if i not in used]
        if unused:
            raise LayoutError(f"samples never bound to an argument: {unused}")
        # group arguments into blocks, ordered by first argument position
        by_sample: dict[int, list[int]] = {}
        for arg, s in enumerate(self.arg_to_sample, start=1):
            by_sample.setdefault(s, []).append(arg)
        blocks = sorted(
            (Block(s, tuple(args), len(self.columns[s]))
             for s, args in by_sample.items()),
            key=lambda b: b.args[0])
        for b in blocks:
            if b.draw_count > b.size:
                raise InfeasibleLayoutError(
                    f"block {b.args} draws {b.draw_count} distinct elements from "
                    f"sample {self.names[b.sample_index]!r} of size {b.size}")
        object.__setattr__(self, "blocks", tuple(blocks))
        # the system of the last seeded estimate and, once built, its rank
        # table (see resampling._rank_table)
        object.__setattr__(self, "_seeded", (None, None))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_samples(cls, samples, blocks=None) -> "SampleSet":
        """Build from ``[(name, values), ...]`` plus an optional blocks map.

        Parameters
        ----------
        samples : sequence of (str, array-like)
            Named value columns.
        blocks : mapping, optional
            ``{argument-index: sample-name}`` with 1-based argument keys.
            Defaults to the identity binding (argument i -> i-th sample).
        """
        names = tuple(name for name, _ in samples)
        columns = tuple(vals for _, vals in samples)
        if blocks is None:
            arg_to_sample = tuple(range(len(names)))
        else:
            arg_to_sample = _binding_from_map(blocks, names)
        return cls(names, columns, arg_to_sample)

    @classmethod
    def from_json(cls, obj, blocks=None) -> "SampleSet":
        """Build from a JSON object ``{name: [values, ...], ...}``."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise LayoutError("samples JSON must be an object of name -> values")
        return cls.from_samples(list(obj.items()), blocks=blocks)

    @classmethod
    def from_csv(cls, path, blocks=None) -> "SampleSet":
        """Build from a CSV file with one named column per sample.

        Columns may have unequal lengths; trailing blank cells are ignored.
        """
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            raise LayoutError(f"{path}: empty CSV")
        header = [h.strip() for h in rows[0]]
        cols: list[list[float]] = [[] for _ in header]
        for lineno, row in enumerate(rows[1:], start=2):
            for j, cell in enumerate(row[:len(header)]):
                cell = cell.strip()
                if not cell:
                    continue
                try:
                    cols[j].append(float(cell))
                except ValueError:
                    raise LayoutError(
                        f"{path}:{lineno}: non-numeric cell {cell!r} "
                        f"in column {header[j]!r}") from None
        return cls.from_samples(list(zip(header, cols)), blocks=blocks)

    # -- layout queries ---------------------------------------------------

    @property
    def m(self) -> int:
        """Number of structure-function arguments."""
        return len(self.arg_to_sample)

    @property
    def sizes(self) -> tuple[int, ...]:
        """Backing sample size n_i per argument (length m)."""
        return tuple(len(self.columns[s]) for s in self.arg_to_sample)

    def values_for_arg(self, arg: int) -> np.ndarray:
        """Backing column for 1-based argument ``arg``."""
        return self.columns[self.arg_to_sample[arg - 1]]

    @property
    def singleton_blocks(self) -> bool:
        """True when every block has exactly one argument."""
        return all(b.draw_count == 1 for b in self.blocks)

    @functools.cached_property
    def layout(self) -> BlockLayout:
        """Data-free view of the block structure, built on first use."""
        return BlockLayout.of(self)

    # -- enumeration ------------------------------------------------------

    def admissible_count(self) -> int:
        """Number of admissible index vectors (product of falling factorials)."""
        total = 1
        for b in self.blocks:
            total *= math.perm(b.size, b.draw_count)
        return total

    def enumerate_index_vectors(self, budget: int | None = None):
        """Yield every admissible index vector as an m-tuple of 0-based indices.

        Within a block the indices are ordered draws without replacement;
        across blocks all combinations are taken.
        """
        check_budget(self.admissible_count(), "index-vector enumeration", budget)
        per_block = [itertools.permutations(range(b.size), b.draw_count)
                     for b in self.blocks]
        arg_slots = [b.args for b in self.blocks]
        for combo in itertools.product(*per_block):
            vec = [0] * self.m
            for args, perm in zip(arg_slots, combo):
                for a, j in zip(args, perm):
                    vec[a - 1] = j
            yield tuple(vec)

    @functools.cached_property
    def draw_plan(self) -> tuple:
        """Runs of blocks, in block order, each a tuple of one entry
        ``(n, k, slots, table, column)`` per block.

        ``slots`` are the 0-based positions of the block's arguments and
        ``column`` its backing sample.  When :func:`_streams.distinct_codes`
        draws outcome ranks (perm(n, k) <= 2**16), ``table`` is the
        read-only (k, perm(n, k)) array ``column[_outcome_table(n, k)].T``,
        whose row j holds draw j's value by rank; otherwise it is None.
        Consecutive tabulated blocks with equal perm(n, k) form one run,
        whose ranks one ``distinct_codes`` call draws; every other block is
        a run alone.  Built on first use and kept with the sample set.
        """
        runs = []
        previous = 0
        for b in self.blocks:
            n, k = b.size, b.draw_count
            column = self.columns[b.sample_index]
            table = None
            count = _table_size(n, k)
            if count:
                table = np.ascontiguousarray(column[_outcome_table(n, k)].T)
                table.flags.writeable = False
            entry = (n, k, tuple(a - 1 for a in b.args), table, column)
            if count and count == previous:
                runs[-1].append(entry)
            else:
                runs.append([entry])
            previous = count
        return tuple(map(tuple, runs))

    def values_matrix(self, indices) -> np.ndarray:
        """Map index vectors (N, m) to argument values (N, m)."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim == 1:
            idx = idx[None, :]
        out = np.empty(idx.shape, dtype=float)
        for a in range(self.m):
            out[:, a] = self.columns[self.arg_to_sample[a]][idx[:, a]]
        return out


def ordered_draws(n: int, k: int) -> np.ndarray:
    """Every ordered draw of ``k`` distinct positions from ``range(n)``.

    Returns a (n!/(n-k)!, k) int array whose rows come in the order of
    ``itertools.permutations(range(n), k)``.
    """
    rows = np.zeros((1, 0), dtype=np.intp)
    for _ in range(k):
        free = (rows[:, :, None] != np.arange(n)).all(axis=1)
        parent, value = np.nonzero(free)
        rows = np.column_stack([rows[parent], value])
    return rows


# draw tables of more cells than this are built afresh on every call, so
# that the cache holds at most 8 MB
_CACHED_DRAW_CELLS = 1 << 16


def _draw_table(n: int, k: int) -> np.ndarray:
    """:func:`ordered_draws` for the grid routes, which only read it: a
    small table is built once per (n, k), read-only and shared; a large
    one is built on every call."""
    if math.perm(n, k) * k > _CACHED_DRAW_CELLS:
        return ordered_draws(n, k)
    return _cached_draws(n, k)


@functools.lru_cache(maxsize=16)
def _cached_draws(n: int, k: int) -> np.ndarray:
    table = ordered_draws(n, k)
    table.flags.writeable = False
    return table


def _binding_from_map(blocks, names) -> tuple[int, ...]:
    name_pos = {n: i for i, n in enumerate(names)}
    parsed: dict[int, int] = {}
    if not isinstance(blocks, Mapping):
        raise LayoutError("blocks must map argument indices to sample names, "
                          f"got {type(blocks).__name__}")
    for key, sample_name in blocks.items():
        try:
            arg = int(key)
        except (TypeError, ValueError):
            raise LayoutError(f"blocks key {key!r} is not an argument index") from None
        if arg < 1:
            raise LayoutError(f"argument indices are 1-based, got {arg}")
        if not isinstance(sample_name, Hashable) or sample_name not in name_pos:
            raise LayoutError(f"blocks map references unknown sample {sample_name!r}")
        parsed[arg] = name_pos[sample_name]
    m = max(parsed) if parsed else 0
    missing = [i for i in range(1, m + 1) if i not in parsed]
    if missing:
        raise LayoutError(f"blocks map missing argument indices {missing}")
    return tuple(parsed[i] for i in range(1, m + 1))
