import hashlib
import sys
import threading

import numpy as np
import pytest

from resamplekit import SampleSet, estimate_theta, parse_system
from resamplekit._streams import (BLOCK, Lane, block_ranges, block_streams,
                                  substream, substream_keys, substreams)


def test_substream_reproducible():
    a = substream(123, Lane.SIMPLE_ESTIMATE, 0).random(16)
    b = substream(123, Lane.SIMPLE_ESTIMATE, 0).random(16)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("key2", [(Lane.SIMPLE_ESTIMATE, 1),
                                  (Lane.WAVE, 0),
                                  (Lane.SIMPLE_ESTIMATE, 0, 1)])
def test_substream_keys_decorrelate(key2):
    a = substream(123, Lane.SIMPLE_ESTIMATE, 0).random(16)
    b = substream(123, *key2).random(16)
    assert not np.array_equal(a, b)


def test_substream_seed_matters():
    a = substream(1, Lane.WAVE, 5).random(8)
    b = substream(2, Lane.WAVE, 5).random(8)
    assert not np.array_equal(a, b)


def test_substream_no_shared_state():
    # interleaved draws from two substreams match isolated draws
    g1, g2 = substream(7, 1, 0), substream(7, 1, 1)
    inter = [g1.random(), g2.random(), g1.random(), g2.random()]
    h1, h2 = substream(7, 1, 0), substream(7, 1, 1)
    solo = [*h1.random(2), *h2.random(2)]
    assert inter[0] == solo[0] and inter[2] == solo[1]
    assert inter[1] == solo[2] and inter[3] == solo[3]


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
def test_block_ranges_partition(n):
    ranges = list(block_ranges(n, BLOCK))
    covered = []
    for b, start, stop in ranges:
        assert b == len(covered)
        assert stop - start >= 1
        covered.append((start, stop))
    assert sum(stop - start for start, stop in covered) == n
    # contiguous, in order
    pos = 0
    for start, stop in covered:
        assert start == pos
        pos = stop


def test_lane_constants_distinct():
    values = [v for k, v in vars(Lane).items() if not k.startswith("_")]
    assert len(values) == len(set(values))


# sha256 (first 16 hex digits) of the first four raw 64-bit Philox outputs
# of substream(7, lane, 0) followed by those of substream(7, lane, 1).  Every
# seeded result is built on these streams, so a change to how they are
# derived must show here first.
GOLDEN_STREAMS = {
    Lane.SIMPLE_ESTIMATE: "a349f641b13b7867",
    Lane.WAVE: "fae2eebfa6ec3c22",
    Lane.MIXED_MOMENT: "95098315a8d70cf1",
    Lane.KNOWN_G: "fe9a626f655b79db",
    Lane.INNER_MC: "daa566986dfb800b",
    Lane.VECTOR_WAVE: "4ff962aebb6e7138",
    Lane.DAMAGE_RESAMPLE: "9456d9201e75fa55",
    Lane.DAMAGE_OUTER: "435a47e5663f2729",
    Lane.RENEWAL_ESTIMATE: "e84eed12241888d9",
    Lane.RENEWAL_PLUGIN: "d0524b87bc02c31a",
    Lane.COVERAGE_MC: "df22ac0666c4e315",
    Lane.COVERAGE_INTERVAL: "160ade1513503efa",
}


def _raw_digest(generators) -> str:
    raw = b"".join(g.bit_generator.random_raw(4).tobytes() for g in generators)
    return hashlib.sha256(raw).hexdigest()[:16]


def test_golden_stream_digests_cover_every_lane():
    lanes = {v for k, v in vars(Lane).items() if not k.startswith("_")}
    assert set(GOLDEN_STREAMS) == lanes


@pytest.mark.parametrize("lane", sorted(GOLDEN_STREAMS))
def test_golden_stream_digests(lane):
    want = GOLDEN_STREAMS[lane]
    assert _raw_digest(substream(7, lane, b) for b in (0, 1)) == want
    # the batched keys, on both routes (a short and a long batch)
    for rows in (2, 40):
        streams = substreams(7, lane, np.arange(rows))
        assert _raw_digest(next(streams) for _ in range(2)) == want


@pytest.mark.parametrize("total", [1, BLOCK, BLOCK + 1, 3 * BLOCK,
                                   11 * BLOCK + 5])
def test_block_streams_equal_fresh_substreams(total):
    got = [(start, stop, rng.bit_generator.random_raw(3).tolist())
           for start, stop, rng in block_streams(total, 5, Lane.WAVE, 9)]
    want = [(start, stop, substream(5, Lane.WAVE, 9, b)
             .bit_generator.random_raw(3).tolist())
            for b, start, stop in block_ranges(total, BLOCK)]
    assert got == want


def raw_draws(rng, count=3):
    return rng.bit_generator.random_raw(count).tolist()


def test_a_single_block_keeps_plain_substream():
    got = [(start, stop, raw_draws(rng))
           for start, stop, rng in block_streams(10, 5, Lane.WAVE)]
    assert got == [(0, 10, raw_draws(substream(5, Lane.WAVE, 0)))]


def test_nested_stream_loops_keep_their_own_streams():
    # the damage study's pattern: an outer loop over replications, and an
    # inner loop of blocks inside each, both live at once
    got, want = [], []
    for rep, outer in enumerate(substreams(3, Lane.DAMAGE_OUTER,
                                           np.arange(4))):
        got.append(raw_draws(outer, 1))
        want.append(raw_draws(substream(3, Lane.DAMAGE_OUTER, rep), 1))
        for start, stop, inner in block_streams(2 * BLOCK + 1, rep,
                                                Lane.DAMAGE_RESAMPLE):
            got.append(raw_draws(inner, 2))
            want.append(raw_draws(substream(rep, Lane.DAMAGE_RESAMPLE,
                                            start // BLOCK), 2))
        for _, _, inner in block_streams(5, rep, Lane.WAVE):
            got.append(raw_draws(inner, 1))
            want.append(raw_draws(substream(rep, Lane.WAVE, 0), 1))
        # the outer stream goes on where it stopped
        got.append(raw_draws(outer, 1))
        want.append(raw_draws(substream(3, Lane.DAMAGE_OUTER, rep), 2)[1:])
    assert got == want


@pytest.mark.parametrize("rows", [3, 40], ids=["pool-keys", "hashed-keys"])
def test_interleaved_stream_loops_keep_their_own_streams(rows):
    a = substreams(1, Lane.KNOWN_G, np.arange(rows))
    b = substreams(2, Lane.KNOWN_G, np.arange(rows))
    got, want = [], []
    for i, (ga, gb) in enumerate(zip(a, b)):
        got += [raw_draws(ga, 1), raw_draws(gb, 2), raw_draws(ga, 1)]
        ref_a = substream(1, Lane.KNOWN_G, i)
        want += [raw_draws(ref_a, 1), raw_draws(substream(2, Lane.KNOWN_G, i),
                                                2), raw_draws(ref_a, 1)]
    assert got == want


def test_an_abandoned_loop_leaves_the_next_loop_its_streams():
    first = substreams(4, Lane.WAVE, np.arange(5))
    rng = next(first)
    assert raw_draws(rng) == raw_draws(substream(4, Lane.WAVE, 0))
    # the abandoned loop holds its generator until it is closed; a new
    # loop while it lives, and one after, both draw their own streams
    for _ in range(2):
        got = [raw_draws(g) for g in substreams(6, Lane.WAVE, np.arange(3))]
        assert got == [raw_draws(substream(6, Lane.WAVE, i)) for i in range(3)]
        first.close()


def test_stream_loops_on_threads_keep_their_own_streams():
    # more threads than cores and a short switch interval, so that loops
    # on different threads interleave between every draw
    def loop(seed, out):
        for _ in range(20):
            for start, stop, rng in block_streams(BLOCK + 1, seed,
                                                  Lane.COVERAGE_MC):
                out.append(raw_draws(rng, 2))
            for rng in substreams(seed, Lane.KNOWN_G, np.arange(3)):
                out.append(raw_draws(rng, 2))

    def want(seed):
        one = [raw_draws(substream(seed, Lane.COVERAGE_MC, b), 2)
               for b in range(2)]
        one += [raw_draws(substream(seed, Lane.KNOWN_G, i), 2)
                for i in range(3)]
        return one * 20

    outs = {seed: [] for seed in range(4)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=loop, args=(seed, out))
                   for seed, out in outs.items()]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for seed, out in outs.items():
        assert out == want(seed)


def test_many_estimates_build_a_few_generators(monkeypatch):
    samples = SampleSet.from_samples([("a", [1.0, 2.0, 3.0]),
                                      ("b", [0.5, 4.0])])
    spec = parse_system("max(x1, x2)")
    built = []
    real = np.random.Philox
    monkeypatch.setattr(np.random, "Philox",
                        lambda *args: built.append(args) or real(*args))
    for seed in range(1000):
        estimate_theta(spec, samples, 10, seed=seed)
    assert len(built) <= 2


def test_substreams_broadcast_columns():
    # experiment e, block b, as resampling_interval keys them
    e, b = np.repeat(np.arange(4), 3), np.tile(np.arange(3), 4)
    got = [g.random(2).tolist()
           for g in substreams(11, Lane.COVERAGE_INTERVAL, e, b)]
    want = [substream(11, Lane.COVERAGE_INTERVAL, i, j).random(2).tolist()
            for i, j in zip(e.tolist(), b.tolist())]
    assert got == want


def test_substreams_of_many_seeds_span_several_key_batches():
    seeds = np.arange(BLOCK + 3) * (2 ** 31 + 7)
    streams = substreams(seeds, Lane.DAMAGE_RESAMPLE, 0)
    got = [next(streams).bit_generator.random_raw() for _ in range(BLOCK + 3)]
    for i in (0, 1, BLOCK - 1, BLOCK, BLOCK + 2):
        ref = substream(int(seeds[i]), Lane.DAMAGE_RESAMPLE, 0)
        assert got[i] == ref.bit_generator.random_raw()
    assert next(streams, None) is None


def test_substream_keys_shape_and_rejects():
    keys = substream_keys(3, Lane.WAVE, np.arange(12))
    assert keys.shape == (12, 2) and keys.dtype == np.uint64
    with pytest.raises(ValueError):
        substream_keys(np.arange(4).reshape(2, 2), 1)
    with pytest.raises(TypeError):
        substream_keys(np.linspace(0, 1, 12), 1)


@pytest.mark.parametrize("seed, key", [
    (1.5, (1, 0)), (np.float64(2.0), (1,)), (2, (1.5,)),
    (2, (1, np.float64(0.0))), ("3", (1,))])
def test_substream_rejects_non_integer_seeds_and_keys(seed, key):
    with pytest.raises(TypeError):
        substream(seed, *key)
    with pytest.raises(TypeError):
        next(substreams(seed, *key))


def test_substream_takes_numpy_integers():
    want = substream(7, 3, 0).random(4)
    got = substream(np.int64(7), np.uint8(3), np.intp(0)).random(4)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [10, BLOCK + 904], ids=["one-block", "batched"])
def test_estimate_with_a_non_integer_seed_raises(r):
    samples = SampleSet.from_samples([("a", [1.0, 2.0, 3.0])])
    spec = parse_system("x1")
    assert estimate_theta(spec, samples, r, seed=1).realizations == r
    with pytest.raises(TypeError):
        estimate_theta(spec, samples, r, seed=1.5)


# one block (pool key), three (pool keys) and eleven (hashed keys)
SEED_CHECK_R = [10, 3 * BLOCK, 11 * BLOCK]


@pytest.mark.parametrize("r", SEED_CHECK_R)
def test_non_integer_seeds_raise_the_library_message(r):
    samples = SampleSet.from_samples([("a", [1.0, 2.0, 3.0])])
    spec = parse_system("x1")
    for seed in (1.5, np.float64(2.0), "3"):
        with pytest.raises(TypeError) as info:
            estimate_theta(spec, samples, r, seed=seed)
        assert str(info.value) == \
            f"seeds and keys must be integers, got {seed!r}"
    with pytest.raises(TypeError, match="seeds and keys must be integers"):
        substream(7, 1.5)


@pytest.mark.parametrize("rows", [1, 3, 11], ids=["one", "pool", "hashed"])
def test_substreams_name_a_non_integer_seed_as_given(rows):
    for seed in (1.5, np.float64(2.0)):
        with pytest.raises(TypeError) as info:
            next(substreams(seed, Lane.WAVE, np.arange(rows)))
        assert str(info.value) == \
            f"seeds and keys must be integers, got {seed!r}"


@pytest.mark.parametrize("r", SEED_CHECK_R)
def test_every_route_rejects_bool_and_negative_seeds_alike(r):
    samples = SampleSet.from_samples([("a", [1.0, 2.0, 3.0])])
    spec = parse_system("x1")
    for seed in (True, np.True_):
        with pytest.raises(TypeError, match="must be integers"):
            estimate_theta(spec, samples, r, seed=seed)
    with pytest.raises(ValueError) as info:
        estimate_theta(spec, samples, r, seed=-1)
    assert str(info.value) == "seeds and keys must be non-negative, got -1"


@pytest.mark.parametrize("rows", [1, 3, 11], ids=["one", "pool", "hashed"])
def test_substreams_rejects_bool_and_negative_seeds_alike(rows):
    for seed in (True, np.array([True] * rows)):
        with pytest.raises(TypeError, match="must be integers"):
            next(substreams(seed, Lane.WAVE, np.arange(rows)))
    with pytest.raises(ValueError) as info:
        next(substreams(np.arange(rows) - 1, Lane.WAVE, 0))
    assert str(info.value) == "seeds and keys must be non-negative, got -1"
    with pytest.raises(ValueError) as info:
        substream(-1, Lane.WAVE)
    assert str(info.value) == "seeds and keys must be non-negative, got -1"
