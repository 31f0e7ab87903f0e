"""Deterministic substream derivation for all stochastic operations.

Every randomized routine in the package is keyed by an integer seed plus a
tuple of non-negative integers (a "lane" constant per routine, then block
indices).  Streams are Philox counter-based generators keyed through
``numpy.random.SeedSequence`` spawn keys, so the same (seed, key) always
yields the same draws regardless of execution order or thread count.

Long runs are split into fixed blocks of :data:`BLOCK` units; block ``b`` of a
computation uses the substream keyed ``(*key, b)``.  Assembling results in
block order makes output independent of how blocks were scheduled.

A Philox stream is its key and a counter (Salmon et al., SC'11), so a
stream loop (:func:`block_streams`, :func:`substreams`) builds no generator
per stream: it takes one :class:`KeyedGenerator` from a module-level idle
list, sets each stream's key into it, and hands it back when the loop ends.
A key is ``SeedSequence(seed, spawn_key=key).generate_state(2, uint64)``.
A loop of fewer than ``_HASH_MIN_ROWS`` streams reads each key off
SeedSequence's pool and runs generate_state's four output hashmixes in
Python ints (:func:`_pool_key`); a longer one runs SeedSequence's whole
hash as array operations over the batch (:func:`substream_keys`).  Either
way the draws equal :func:`substream`'s, which builds a fresh
SeedSequence and Philox per call and is kept as the reference.  Every
route checks seeds and keys with :func:`_key_int`.

Every draw without replacement goes through :func:`draw_distinct`, a partial
Fisher-Yates shuffle (Durstenfeld 1964) driven by bounded integers, so its
stream is defined once for the whole package: :func:`_code_draws` takes
every integer of a draw from the generator, in order.  Its outcomes are
read off a cached table of every outcome when there are at most 2**16, by
compare and select on the swap targets alone when k**2 <= n (the select
route, O(k**2) compares a row), and by swaps on a positions-major (n, rows)
table otherwise; all three give the same outcomes.  A caller that needs
only the first positions of some rows reads them through
:func:`joined_prefix`, one reader over the draws of one or more
generators, each taken by :func:`_code_draws`; it decodes a position's
swap digit only for the rows asked for, so the stream and every outcome
read are those of the whole draw.
"""

from __future__ import annotations

import functools
import math
import operator

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

    Builds a new SeedSequence, Philox and Generator per call; the stream
    loops draw the same numbers from a reused generator.  Seeds and keys
    are checked by :func:`_key_int`.
    """
    ss = np.random.SeedSequence(entropy=_key_int(seed),
                                spawn_key=tuple(map(_key_int, key)))
    return np.random.Generator(np.random.Philox(ss))


def _key_int(value) -> int:
    """``value`` as a seed or key entry: a bool or a non-integer
    (``1.5``, ``np.float64(2.0)``) raises TypeError, a negative integer
    ValueError."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"seeds and keys must be integers, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(
            f"seeds and keys must be integers, got {value!r}") from None
    if value < 0:
        raise ValueError(f"seeds and keys must be non-negative, got {value}")
    return value


def _count(value, name: str, least: int = 1) -> int:
    """``value`` as a count argument such as r, k, a sample size or a
    replication count: a bool or a non-integer (``2.5``, ``np.float64(2.0)``)
    raises TypeError, an integer below ``least`` ValueError."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    return value


def _int64_count(value, name: str, least: int = 1) -> int:
    """:func:`_count` for a count that numpy holds as an int64: one of
    2**63 or more raises ValueError, before it reaches numpy."""
    value = _count(value, name, least)
    if value >= 2 ** 63:
        raise ValueError(f"{name} must be below 2**63, got {value}")
    return value


def block_ranges(total: int, block: int = BLOCK):
    """Yield ``(index, start, stop)`` triples covering ``range(total)``."""
    b = 0
    start = 0
    while start < total:
        stop = min(start + block, total)
        yield b, start, stop
        b += 1
        start = stop


def block_count(total: int) -> int:
    """Number of :data:`BLOCK`-unit blocks that cover ``range(total)``."""
    return -(-total // BLOCK)


def block_streams(total: int, seed: int, *key: int):
    """Yield ``(start, stop, rng)`` over the blocks of ``block_ranges(total)``;
    block b draws from the substream keyed ``(seed, *key, b)``.  ``rng`` is
    one reused generator, as in :func:`substreams`."""
    if total > BLOCK:
        streams = substreams(seed, *key, np.arange(block_count(total)))
        for (_, start, stop), rng in zip(block_ranges(total), streams):
            yield start, stop, rng
    elif total > 0:
        # the common single block: one key, no arrays
        stream = _idle_generator()
        try:
            yield 0, total, stream(_pool_key(seed, *key, 0))
        finally:
            _IDLE.append(stream)


def substreams(seeds, *key_columns):
    """Yield the generator of ``substream(seed_i, *key_i)`` for each row i.

    Arguments are broadcast as in :func:`substream_keys`.  Every row's
    generator is the same ``Generator`` object of one :class:`KeyedGenerator`,
    so a row's draws must be taken before the next row is requested, and
    before the loop ends (it then goes back to the idle list).  Keys are
    derived :data:`BLOCK` rows at a time.
    """
    cols = _key_columns(seeds, key_columns)
    stream = _idle_generator()
    try:
        for lo in range(0, len(cols[0]), BLOCK):
            for key in _batch_keys([c[lo:lo + BLOCK] for c in cols]):
                yield stream(key)
    finally:
        _IDLE.append(stream)


class KeyedGenerator:
    """One Philox generator, re-keyed at the start of each substream.

    ``stream(key)`` sets the Philox key ``key`` (a row of
    :func:`substream_keys`) with a zero counter and an empty buffer, which is
    the state a fresh ``Philox(SeedSequence)`` starts in, and returns the
    same ``Generator`` every time.  Its draws then equal those of the
    corresponding :func:`substream`, without building a SeedSequence and a
    Philox per substream.  Since every call resets the whole state, nothing
    a stream leaves behind reaches the next one: the stream loops keep idle
    instances in ``_IDLE`` and reuse them, one loop at a time each.
    """

    _ZERO = (0, 0, 0, 0)

    def __init__(self):
        self._bits = np.random.Philox(0)
        self._generator = np.random.Generator(self._bits)

    def __call__(self, key) -> np.random.Generator:
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": self._ZERO, "key": key},
            "buffer": self._ZERO, "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        return self._generator


# KeyedGenerators that no live stream loop holds.  A loop pops one (or
# builds one when none is idle) and appends it back when it ends, so loops
# live at once (nested, interleaved or on other threads) never share one;
# list.pop and list.append are atomic.  The list holds at most as many as
# were ever live at once.
_IDLE: list = []


def _idle_generator() -> KeyedGenerator:
    try:
        return _IDLE.pop()
    except IndexError:
        return KeyedGenerator()


# Keys of fewer rows than this are read one row at a time off numpy's
# SeedSequence pool (about 18 us a row); from this many rows on, one array
# hash over the batch is cheaper (about 200 us a batch plus 0.1 us a row;
# both best of 7 on a 2-core x86-64 VM, crossing near 11 rows).
_HASH_MIN_ROWS = 10

# SeedSequence constants (numpy.random.bit_generator, NEP 19)
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715


def substream_keys(seeds, *key_columns) -> np.ndarray:
    """Philox keys of the substreams ``(seed_i, *key_i)``, as (K, 2) uint64.

    ``seeds`` and each key column are a non-negative integer or a 1-d array
    of them; they are broadcast to one length K, and row i of the key is
    ``(key_columns[0][i], key_columns[1][i], ...)``.  Row i of the result
    equals ``SeedSequence(seeds[i], spawn_key=key_i).generate_state(2,
    np.uint64)``, the key that ``Philox(SeedSequence)`` and so
    :func:`substream` use.  Below ``_HASH_MIN_ROWS`` rows each key is read
    off numpy's SeedSequence pool (:func:`_pool_key`); otherwise one array
    pass runs SeedSequence's hash, which NEP 19 fixes across numpy
    releases, over every row at once.
    """
    keys = _batch_keys(_key_columns(seeds, key_columns))
    return np.array(keys, dtype=np.uint64).reshape(-1, 2)


def _key_columns(seeds, key_columns) -> list:
    """Seeds and key columns broadcast to 1-d arrays of one length.  A
    single seed is checked by :func:`_key_int` first, so a bad one is
    named as given, not by the dtype of the column it would become."""
    if np.ndim(seeds) == 0:
        seeds = _key_int(seeds)
    cols = np.broadcast_arrays(*map(np.atleast_1d, (seeds, *key_columns)))
    if cols[0].ndim != 1:
        raise ValueError("seeds and key columns must be integers or 1-d")
    return cols


def _batch_keys(cols):
    """Keys of the rows of ``cols``, each a list of two ints, by the
    route :func:`substream_keys` names."""
    if len(cols[0]) < _HASH_MIN_ROWS:
        return [_pool_key(*row) for row in zip(*(c.tolist() for c in cols))]
    return _hashed_keys(cols).tolist()


def _pool_key(seed, *key) -> list:
    """The Philox key of ``substream(seed, *key)``, as two ints.

    ``generate_state(2, uint64)`` hashes each of the pool's four words once
    and joins them into two little-endian 64-bit words; those four hashmixes
    run here in Python ints, on ``SeedSequence(seed, spawn_key=key).pool``.
    """
    pool = np.random.SeedSequence(_key_int(seed),
                                  spawn_key=tuple(map(_key_int, key))).pool
    words = []
    for value, xor, mult in zip(pool.tolist(), *_STATE_CONSTANTS):
        value = (value ^ xor) * mult & _MASK32
        words.append(value ^ value >> 16)
    return [words[0] | words[1] << 32, words[2] | words[3] << 32]


def _hashed_keys(cols) -> np.ndarray:
    """substream_keys by SeedSequence's hash run on uint32 arrays.

    SeedSequence splits every integer into little-endian 32-bit words (at
    least one) and, when there is a spawn key, pads the seed's words with
    zeros to the pool size of four before the key's words follow.  Rows
    whose entries take the same numbers of words share one hash pass.
    """
    words, counts = zip(*map(_int_words, cols))
    counts = np.array(counts)
    out = np.empty((len(cols[0]), 2), dtype=np.uint64)
    if (counts == counts[:, :1]).all():
        groups = [(counts[:, 0], slice(None))]
    else:
        shapes, inverse = np.unique(counts, axis=1, return_inverse=True)
        groups = [(shape, np.flatnonzero(inverse.reshape(-1) == g))
                  for g, shape in enumerate(shapes.T)]
    for shape, rows in groups:
        parts = [w[:n, rows] for w, n in zip(words, shape)]
        pad = _POOL - shape[0]
        if pad > 0:
            parts.insert(1, np.zeros((pad, parts[0].shape[1]), np.uint32))
        out[rows] = _hash_entropy(np.concatenate(parts))
    return out


def _int_words(col: np.ndarray):
    """(words, counts) of a column of non-negative integers: its 32-bit
    words, least significant first, as a (words, K) uint32 array, and the
    number of words SeedSequence takes for each entry."""
    if col.dtype.kind not in "iuO":
        raise TypeError(f"seeds and keys must be integers, got {col.dtype}")
    if col.dtype.kind == "O":
        col = np.array([_key_int(x) for x in col], dtype=object)
    elif len(col):
        _key_int(col.min())
    if col.dtype.kind == "i":
        col = col.astype(np.uint64)
    words = [col & _MASK32]
    counts = np.ones(len(col), dtype=np.intp)
    rest = col >> 32
    while rest.any():
        counts += rest != 0
        words.append(rest & _MASK32)
        rest = rest >> 32
    return np.array(words, dtype=np.uint32), counts


def _constants(const: int, factor: int, calls: int):
    """(xor, multiplier) pairs of ``calls`` successive hashmix steps whose
    constant starts at ``const`` and is multiplied by ``factor`` each step;
    (calls, 1) uint32 each."""
    pairs = []
    for _ in range(calls):
        nxt = const * factor & _MASK32
        pairs.append((const, nxt))
        const = nxt
    table = np.array(pairs, dtype=np.uint32)
    return table[:, :1], table[:, 1:]


@functools.lru_cache(maxsize=8)
def _mix_constants(length: int):
    """Constants of mix_entropy's hashmix steps over ``length`` words."""
    return _constants(_INIT_A, _MULT_A,
                      _POOL * _POOL + (length - _POOL) * _POOL)


# the four output words of generate_state
_STATE_XOR, _STATE_MULT = _constants(_INIT_B, _MULT_B, _POOL)
_STATE_CONSTANTS = (_STATE_XOR.ravel().tolist(), _STATE_MULT.ravel().tolist())


def _hashmix(value, xor, mult):
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x, y):
    out = x * np.uint32(_MIX_L)
    out -= y * np.uint32(_MIX_R)
    out ^= out >> 16
    return out


def _hash_entropy(entropy: np.ndarray) -> np.ndarray:
    """Philox keys, (K, 2) uint64, of the (L >= 4, K) uint32 entropy words.

    The steps of SeedSequence.mix_entropy and generate_state(2, uint64):
    the pool's four words are hashed from the first four entropy words;
    each pool word is mixed into the other three; each further entropy word
    is mixed into all four; four output words are hashed from the pool.
    Every hashmix takes the next constant of one fixed sequence, so the
    calls that do not depend on each other run as one array operation.
    """
    xor, mult = _mix_constants(len(entropy))
    pool = _hashmix(entropy[:_POOL], xor[:_POOL], mult[:_POOL])
    at = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[at:at + 3],
                                             mult[at:at + 3]))
        at += 3
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, xor[at:at + _POOL],
                                   mult[at:at + _POOL]))
        at += _POOL
    state = _hashmix(pool, _STATE_XOR, _STATE_MULT).astype(np.uint64)
    out = np.empty((entropy.shape[1], 2), dtype=np.uint64)
    out[:, 0] = state[0] | state[1] << 32
    out[:, 1] = state[2] | state[3] << 32
    return out


# Fisher-Yates outcomes are tabulated when a draw has at most this many
_TABLE_LIMIT = 1 << 16
# cells of one positions-major swap table in the dense route
_DENSE_CELLS = 1 << 22
# every run of digits is read from one integer below this span
_SPAN_LIMIT = 1 << 63
# untabulated draws with n >= _SELECT_FACTOR * k**2 read their outcomes by
# compare and select (_fy_select), the others swap on a positions-major
# table (_fy_dense).  At 4096 rows (best of 7, 2-core x86-64 VM) select
# against dense takes 40 vs 198 us at (n, k) = (300, 3), 100 vs 2486 at
# (2000, 8), 122 vs 215 at (49, 7), 162 vs 299 at (100, 10) and 356 vs 787
# at (400, 20).  Below the switch it depends on k: 153 vs 208 at (30, 7),
# 281 vs 300 at (30, 10), but 483 vs 216 at (15, 10) and 1784 vs 396 at
# (20, 20).
_SELECT_FACTOR = 1


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
    perm(n, k) <= 2**16, by compare and select on the swap targets alone
    when k**2 <= n (:func:`_fy_select`), and by a positions-major swap
    table otherwise (:func:`_fy_dense`).  The draw is
    :func:`distinct_codes` (everything taken from ``rng``) followed by
    :func:`distinct_outcomes` (the mapping, which reads only the codes);
    :func:`joined_prefix` reads the outcomes of the same draws one
    position at a time.
    """
    return distinct_outcomes(n, k, distinct_codes(rng, n, k, rows))


def _code_draws(rng: np.random.Generator, n: int, k: int, rows: int):
    """Every integer a draw of ``rows`` ordered k-subsets of ``range(n)``
    takes from ``rng``, in order, as ``(count, draws)``: perm(n, k) and the
    (rows,) outcome ranks on the table route, else 0 and, for each run of
    :func:`_runs`, its swap radices and its (rows,) integers."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n to draw without replacement, "
                         f"got k={k}, n={n}")
    count = _table_size(n, k)
    if count:
        # one run: the drawn integer is the rank of the outcome (a span of
        # 1 draws nothing from the generator)
        return count, rng.integers(0, count, size=rows)
    radices = _radices(n, k)
    return 0, [(radices[start:stop], rng.integers(0, span, size=rows))
               for start, stop, span in _runs(radices)]


def distinct_codes(rng: np.random.Generator, n: int, k: int,
                   rows: int) -> np.ndarray:
    """The draws of :func:`draw_distinct` from ``rng``, rows on the last axis.

    On the table route (perm(n, k) <= 2**16) the code of a row is the rank
    of its outcome, a (rows,) array; otherwise it is the row's swap digits,
    a (k, rows) array.  Codes of several draws of one (n, k), joined along
    the last axis, map to the outcomes of each draw stacked in that order.
    """
    count, draws = _code_draws(rng, n, k, rows)
    return draws if count else _swap_digits(k, rows, draws)


def _swap_digits(k: int, rows: int, draws) -> np.ndarray:
    """The (k, rows) swap digits of the runs ``draws`` of :func:`_code_draws`."""
    digits = np.empty((k, rows), dtype=np.intp)
    start = 0
    for radices, u in draws:
        stop = start + len(radices)
        _decode_digits(u, radices, out=digits[start:stop])
        start = stop
    # k = n ends on position n - 1, whose swap is with itself
    digits[start:] = 0
    return digits


def distinct_outcomes(n: int, k: int, codes: np.ndarray) -> np.ndarray:
    """The (rows, k) outcomes of :func:`distinct_codes`'s codes for (n, k)."""
    if _table_size(n, k):
        return _outcome_table(n, k).take(codes, axis=0)
    return _fisher_yates(n, codes)


def joined_prefix(n: int, k: int, parts, stride: int) -> "DistinctPrefix":
    """One :class:`DistinctPrefix` over one or more draws of one (n, k),
    their rows joined in order; ``parts`` holds each draw's
    ``_code_draws(rng, n, k, rows)``.  Every outcome of draw g is read
    raised by ``g * stride``: with stride n, an index into row g of a
    flattened (len(parts), n) array.  A single draw is read as drawn."""
    count = parts[0][0]
    sizes = [len(draws if count else draws[0][1]) for _, draws in parts]
    if len(parts) == 1:
        return DistinctPrefix(n, k, sizes[0], *parts[0])
    if count:
        draws = np.concatenate([ranks for _, ranks in parts])
    else:
        draws = [(radices, np.concatenate([runs[j][1] for _, runs in parts]))
                 for j, (radices, _) in enumerate(parts[0][1])]
    shift = np.repeat(np.arange(len(parts)) * stride, sizes)
    return DistinctPrefix(n, k, len(shift), count, draws, shift)


class DistinctPrefix:
    """One draw without replacement whose outcomes are read by position.

    ``position(i, rows)`` gives position i's outcome for ``rows`` (an index
    array into the draw's rows, or None for all of them), for i = 0, 1, ...
    in turn; a row may drop out between positions but not come back, so a
    caller that needs only a prefix of some rows decodes no more than that.
    A row's swap digit at position i is decoded alone, as
    ``(u // product of the run's later radices) % radix`` of its run's
    integer u.  Where the draw takes the select route, the only state is
    the (k, rows) array of swap targets, and position i is traced back
    through the i earlier swaps as in :func:`_fy_select`; otherwise the
    swap runs as in :func:`_fy_dense` (:func:`_swap`) on a positions-major
    (n, rows) table.  Where that table would exceed ``_DENSE_CELLS`` cells,
    :func:`_fy_dense` decodes every outcome in row chunks first, and on the
    table route one gather does; positions are then read off those
    outcomes.  Outcomes equal those of :func:`distinct_outcomes` on the
    same draws, whatever rows drop out.
    ``decoded`` tells whether every outcome was decoded up front.
    ``outcomes(rows)`` gives the whole outcomes of some rows at once, and
    ``row(j)`` row j's, decoded in Python ints.  Every outcome read is
    raised by its row's entry of ``shift`` when one is given.
    """

    def __init__(self, n: int, k: int, rows: int, count: int, draws,
                 shift: np.ndarray | None = None):
        self.k, self.rows = k, rows
        self._next = 0
        self._shift = shift
        if count:
            outcomes = _outcome_table(n, k).take(draws, axis=0)
        elif not _selects(n, k) and n * rows > _DENSE_CELLS:
            outcomes = _fy_dense(n, _swap_digits(k, rows, draws))
        else:
            outcomes = None
        # reading a position then costs no decoding
        self.decoded = outcomes is not None
        if self.decoded:
            # positions-major (k, rows), each row raised by its shift
            self._outcomes = np.empty((k, rows), dtype=outcomes.dtype)
            np.add(outcomes.T, 0 if shift is None else shift,
                   out=self._outcomes)
            return
        self._n, self._draws = n, draws
        self._cols = np.arange(rows)
        # (u, product of the later radices of its run, radix, first of its
        # run) of each swap digit
        self._digits = []
        for radices, u in draws:
            below = math.prod(radices)
            for at, radix in enumerate(radices):
                below //= radix
                self._digits.append((u, below, radix, at == 0))
        small = np.min_scalar_type(n - 1)
        if _selects(n, k):
            # each swap's target, by position; the outcomes are read off it
            self._table = None
            self._target = np.empty((k, rows), dtype=small)
        else:
            self._table = np.empty((n, rows), dtype=small)
            self._table[:] = np.arange(n, dtype=small)[:, None]

    def position(self, i: int, rows: np.ndarray | None = None) -> np.ndarray:
        """Position i's outcome (an integer array) for ``rows``, or for
        every row when ``rows`` is None."""
        if i != self._next or i >= self.k:
            raise ValueError(f"positions are read in order 0..{self.k - 1}: "
                             f"expected {self._next}, got {i}")
        self._next += 1
        sel = slice(None) if rows is None else rows
        if self.decoded:
            return self._outcomes[i, sel]
        pos = self._digit(i, rows)
        pos += i
        if self._table is not None:
            cols = self._cols if rows is None else rows
            value = _swap(self._table, i, pos, cols, sel)
        else:
            value = pos.astype(self._target.dtype)
            if rows is None:
                self._target[i] = value
                earlier = self._target[:i]
            else:
                # take and put move a row set faster than fancy indexing
                self._target[i].put(rows, value)
                earlier = self._target[:i].take(rows, axis=1)
            hit = np.empty(value.shape, dtype=bool)
            for j in range(i - 1, -1, -1):
                _unswap(value, j, earlier[j], hit)
        if self._shift is not None:
            value = value + self._shift[sel]
        return value

    def _digit(self, i: int, rows) -> np.ndarray:
        """A new array of the swap digits at position i of ``rows``."""
        if i >= len(self._digits):
            # position n - 1 of k = n swaps with itself
            return np.zeros(len(self._cols if rows is None else rows),
                            dtype=np.intp)
        u, below, radix, first = self._digits[i]
        if rows is not None:
            u = u.take(rows)
        q = u // below
        if first:
            # u < below * radix at the first digit of a run
            return q
        # q % radix; numpy's integer % is slower than // by a scalar
        rest = q // radix
        rest *= radix
        return np.subtract(q, rest, out=q)

    def outcomes(self, rows: np.ndarray) -> np.ndarray:
        """The whole (len(rows), k) outcomes of ``rows``, from their draws
        alone."""
        if self.decoded:
            return self._outcomes[:, rows].T
        draws = [(radices, u.take(rows)) for radices, u in self._draws]
        out = _fisher_yates(self._n, _swap_digits(self.k, len(rows), draws))
        if self._shift is not None:
            out += self._shift.take(rows)[:, None]
        return out

    def row(self, j: int) -> list[int]:
        """Row j's whole outcome, from its draws alone."""
        if self.decoded:
            return self._outcomes[:, j].tolist()
        digits = [u.item(j) // below % radix
                  for u, below, radix, _ in self._digits]
        digits += [0] * (self.k - len(digits))
        # the swaps on a map of the positions they touched
        shift = 0 if self._shift is None else self._shift.item(j)
        moved: dict[int, int] = {}
        out = []
        for i, d in enumerate(digits):
            out.append(moved.get(i + d, i + d) + shift)
            moved[i + d] = moved.get(i, i)
        return out


def _table_size(n: int, k: int) -> int:
    """perm(n, k) when the draw is tabulated, else 0."""
    # perm(n, 9) >= 9! > 2**16, so nine factors decide the route
    count = math.perm(n, min(k, 9))
    return count if count <= _TABLE_LIMIT else 0


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
    return (_fy_select if _selects(n, len(digits)) else _fy_dense)(n, digits)


def _selects(n: int, k: int) -> bool:
    """Whether draws of k positions of ``range(n)`` take the select route
    (see ``_SELECT_FACTOR``)."""
    return _SELECT_FACTOR * k * k <= n


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


def _fy_select(n: int, digits: np.ndarray) -> np.ndarray:
    """Outcomes read from the swap targets alone: O(rows * k) memory.

    With t_j = j + d_j and tau_j the transposition of j and t_j, the
    outcome at position i is tau_0(tau_1(...tau_{i-1}(t_i))): the value at
    t_i before step i, traced back through the earlier swaps.  Starting
    from every target, step j = k - 2, ..., 0 applies tau_j to the
    positions after j (:func:`_unswap`), on the smallest integer type that
    holds n - 1.  Row j itself changes only at the steps below j, which
    run after step j, so step j reads t_j there.
    """
    k, rows = digits.shape
    value = np.empty((k, rows), dtype=np.min_scalar_type(n - 1))
    np.add(digits, np.arange(k)[:, None], out=value, casting="unsafe")
    hit = np.empty((k, rows), dtype=bool)
    for j in range(k - 2, -1, -1):
        _unswap(value[j + 1:], j, value[j], hit[j + 1:])
    out = np.empty((rows, k), dtype=np.intp)
    out[:] = value.T
    return out


def _unswap(value: np.ndarray, j: int, target: np.ndarray,
            hit: np.ndarray) -> None:
    """Apply tau_j, the transposition of j and ``target`` (one entry per
    column), to ``value`` in place; ``hit`` is a bool work array of its
    shape.

    A value traced down to step j is t_i >= i > j, or the index j' > j of
    a step traced before it, so it is never j: tau_j only moves ``target``
    to j, one compare and one masked assignment.
    """
    np.equal(value, target, out=hit)
    np.copyto(value, j, where=hit)


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
        cols = np.arange(width)
        for i in range(swaps):
            _swap(table, i, d[i] + i, cols)
        out[lo:lo + width] = table[:k].T
    return out


def _swap(table: np.ndarray, i: int, at: np.ndarray, cols: np.ndarray,
          sel=slice(None)) -> np.ndarray:
    """Swap position i with position ``at`` (an array, overwritten) of the
    columns ``cols``, which are ``sel`` of the positions-major ``table``;
    returns the values moved into position i."""
    flat = table.reshape(-1)
    # flat index of each column's swap target
    at *= table.shape[1]
    at += cols
    held = flat.take(at)
    flat[at] = table[i, sel]
    table[i, sel] = held
    return held
