"""Deterministic substream derivation for all stochastic operations.

Every randomized routine in the package is keyed by an integer seed plus a
tuple of non-negative integers (a "lane" constant per routine, then block
indices).  Streams are Philox counter-based generators derived through
``numpy.random.SeedSequence`` spawn keys, so the same (seed, key) always
yields the same draws regardless of execution order or thread count.

Long runs are split into fixed blocks of :data:`BLOCK` units; block ``b`` of a
computation uses the substream keyed ``(*key, b)``.  Assembling results in
block order makes output independent of how blocks were scheduled.

Every draw without replacement goes through :func:`draw_distinct`, a partial
Fisher-Yates shuffle (Durstenfeld 1964) driven by bounded integers, so its
stream is defined once for the whole package.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Number of realizations (or replications) handled per substream block.
BLOCK = 4096


class Lane:
    """Distinct stream lanes, one per stochastic operation in the package."""

    SIMPLE_ESTIMATE = 1
    WAVE = 2
    MIXED_MOMENT = 3
    KNOWN_G = 4
    INNER_MC = 5
    VECTOR_WAVE = 6
    DAMAGE_RESAMPLE = 7
    DAMAGE_OUTER = 8
    RENEWAL_ESTIMATE = 9
    RENEWAL_PLUGIN = 10
    COVERAGE_MC = 11
    COVERAGE_INTERVAL = 12


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent generator keyed by ``(seed, *key)``.

    Parameters
    ----------
    seed : int
        User-facing run seed (non-negative).
    *key : int
        Non-negative integers identifying the lane/block.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def block_ranges(total: int, block: int = BLOCK):
    """Yield ``(index, start, stop)`` triples covering ``range(total)``."""
    b = 0
    start = 0
    while start < total:
        stop = min(start + block, total)
        yield b, start, stop
        b += 1
        start = stop


# Fisher-Yates outcomes are tabulated when a draw has at most this many
_TABLE_LIMIT = 1 << 16
# cells of one positions-major swap table in the dense route
_DENSE_CELLS = 1 << 22
# every run of digits is read from one integer below this span
_SPAN_LIMIT = 1 << 63


def draw_distinct(rng: np.random.Generator, n: int, k: int,
                  rows: int) -> np.ndarray:
    """Draw ``rows`` ordered k-subsets of ``range(n)`` without replacement.

    Returns a (rows, k) int array.  Row j performs the partial Fisher-Yates
    swaps i <-> i + d_i for i < min(k, n - 1), d_i uniform on [0, n - i),
    and keeps positions 0..k-1.  The digits d_i are read, first digit most
    significant, from one ``rng.integers(0, span, size=rows)`` call per run
    of positions whose radix product ``span`` stays below 2**63 (Lemire's
    method makes each integer exactly uniform).  For k = 1 this is the
    single call ``rng.integers(0, n, size=rows)``.

    The same mapping is evaluated by a cached table of all outcomes when
    perm(n, k) <= 2**16, by swaps over the touched positions when
    k**2 <= n, and by a positions-major swap table otherwise.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n to draw without replacement, "
                         f"got k={k}, n={n}")
    # perm(n, 9) >= 9! > 2**16, so nine factors decide the route
    count = math.perm(n, min(k, 9))
    if count <= _TABLE_LIMIT:
        # one run: the drawn integer is the rank of the outcome (a span of
        # 1 draws nothing from the generator)
        rank = rng.integers(0, count, size=rows)
        return _outcome_table(n, k).take(rank, axis=0)
    radices = _radices(n, k)
    digits = np.empty((k, rows), dtype=np.intp)
    # k = n ends on position n - 1, whose swap is with itself
    digits[len(radices):] = 0
    for start, stop, span in _runs(radices):
        _decode_digits(rng.integers(0, span, size=rows), radices[start:stop],
                      out=digits[start:stop])
    return _fisher_yates(n, digits)


def _radices(n: int, k: int) -> list[int]:
    """Radix n - i of the swap digit at each position i < min(k, n - 1)."""
    return list(range(n, n - min(k, n - 1), -1))


def _runs(radices: list[int]):
    """Split positions into runs whose radix product stays below 2**63;
    yields ``(start, stop, span)``."""
    start, span = 0, 1
    for i, radix in enumerate(radices):
        if span * radix >= _SPAN_LIMIT:
            yield start, i, span
            start, span = i, 1
        span *= radix
    if span > 1:
        yield start, len(radices), span


def _decode_digits(u: np.ndarray, radices, out: np.ndarray) -> None:
    """Write the mixed-radix digits of ``u``, first digit most significant,
    into the (len(radices), len(u)) array ``out``."""
    for i in range(len(radices) - 1, 0, -1):
        q = u // radices[i]
        np.subtract(u, q * radices[i], out=out[i])
        u = q
    if len(radices):
        out[0] = u


def _fisher_yates(n: int, digits: np.ndarray) -> np.ndarray:
    """Outcomes of the swaps given by ``digits`` (k, rows); (rows, k)."""
    k = len(digits)
    return _fy_sparse(n, digits) if k * k <= n else _fy_dense(n, digits)


@functools.lru_cache(maxsize=32)
def _outcome_table(n: int, k: int) -> np.ndarray:
    """Read-only (perm(n, k), k) table of every outcome, indexed by rank."""
    count = math.perm(n, k)
    digits = np.zeros((k, count), dtype=np.intp)
    radices = _radices(n, k)
    _decode_digits(np.arange(count), radices, out=digits[:len(radices)])
    table = _fisher_yates(n, digits)
    table.flags.writeable = False
    return table


def _fy_sparse(n: int, digits: np.ndarray) -> np.ndarray:
    """Swaps tracked over the touched positions: O(rows * k) memory.

    Step i moves the value at i + d_i into position i, which no later step
    touches.  That value is ``w`` of the latest earlier step whose target
    was i + d_i, where ``w[s]`` is the value position s held before step
    s; without such a step it is i + d_i itself.
    """
    k, rows = digits.shape
    target = digits + np.arange(k)[:, None]
    out = np.empty((rows, k), dtype=np.intp)
    w = np.empty((k, rows), dtype=np.intp)
    cols = np.arange(rows)
    for i in range(k):
        steps = np.arange(i)[:, None]
        for pos, dest in ((target[i], out[:, i]), (i, w[i])):
            latest = np.where(target[:i] == pos, steps, -1).max(axis=0,
                                                                 initial=-1)
            dest[...] = np.where(latest >= 0, w[latest, cols], pos)
    return out


def _fy_dense(n: int, digits: np.ndarray) -> np.ndarray:
    """Swaps on a positions-major (n, rows) table, in row chunks of at most
    ``_DENSE_CELLS`` cells."""
    k, rows = digits.shape
    swaps = min(k, n - 1)
    out = np.empty((rows, k), dtype=np.intp)
    chunk = max(1, _DENSE_CELLS // n)
    # the smallest type that holds every position keeps the table in cache
    start = np.arange(n, dtype=np.min_scalar_type(n - 1))[:, None]
    for lo in range(0, rows, chunk):
        d = digits[:swaps, lo:lo + chunk]
        width = d.shape[1]
        table = np.empty((n, width), dtype=start.dtype)
        table[:] = start
        flat = table.reshape(-1)
        cols = np.arange(width)
        for i in range(swaps):
            # flat index of each row's swap target i + d_i
            at = d[i] + i
            at *= width
            at += cols
            held = flat.take(at)
            flat[at] = table[i]
            table[i] = held
        out[lo:lo + width] = table[:k].T
    return out
