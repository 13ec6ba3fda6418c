import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsim.rng import (
    bounded_draws,
    doubles,
    philox_words,
    stream,
    stream_keys,
)


def test_same_key_same_sequence():
    a = stream(42, "bern", 7).random(16)
    b = stream(42, "bern", 7).random(16)
    assert np.array_equal(a, b)


def test_key_parts_separate_streams():
    base = stream(42, "bern", 7).random(8)
    assert not np.array_equal(base, stream(43, "bern", 7).random(8))
    assert not np.array_equal(base, stream(42, "other", 7).random(8))
    assert not np.array_equal(base, stream(42, "bern", 8).random(8))


def test_order_independence():
    # drawing from unrelated streams in between must not perturb a stream
    first = stream(1, "x", 5).random(4)
    for i in range(20):
        stream(1, "x", i).random(10)
    again = stream(1, "x", 5).random(4)
    assert np.array_equal(first, again)


def test_string_int_distinction():
    # the int 1 and the string "1" address different streams
    assert not np.array_equal(stream(1, 1).random(4), stream(1, "1").random(4))


@pytest.mark.parametrize("part", [1.5, True, np.True_])
def test_rejects_unsupported_part_types(part):
    # a bool was hashed as the int it equals: stream(True) was stream(1)
    with pytest.raises(TypeError, match="stream key parts must be int or str"):
        stream(part)
    with pytest.raises(TypeError, match="stream key parts must be int or str"):
        stream_keys(part, count=1)


@pytest.mark.parametrize("part", [2**127, -(2**127) - 1, 2**130])
def test_rejects_int_parts_outside_128_bits_by_value(part):
    with pytest.raises(ValueError, match=f"stream key part {part} outside"):
        stream(1, "x", part)
    with pytest.raises(ValueError, match=f"stream key part {part} outside"):
        stream_keys(part, "x", count=1)


def test_accepts_the_ends_of_the_128_bit_range():
    assert not np.array_equal(stream(2**127 - 1).random(4), stream(-(2**127)).random(4))


# ---------------------------------------------------------------------------
# batch draws: every stream's words in one numpy pass


key_parts = st.lists(
    st.one_of(st.integers(-(2**100), 2**100), st.text(max_size=6)), max_size=3
)


@settings(max_examples=150, deadline=None)
@given(parts=key_parts, count=st.integers(0, 6), n=st.integers(0, 20))
def test_philox_words_are_each_streams_raw_output(parts, count, n):
    keys = stream_keys(*parts, count=count)
    words = philox_words(keys, n)
    assert keys.shape == (count, 2) and words.shape == (count, n)
    assert words.dtype == np.uint64
    for i in range(count):
        gen = stream(*parts, i)
        assert np.array_equal(keys[i], gen.bit_generator.state["state"]["key"])
        assert np.array_equal(words[i], gen.bit_generator.random_raw(n))
        assert np.array_equal(doubles(words[i]), stream(*parts, i).random(n))


# synth_text asks for 120 words per item; lengths that are not a multiple
# of 4 end inside a cipher block
word_counts = st.one_of(st.integers(0, 130), st.sampled_from([117, 119, 120, 121, 127, 129, 130]))
raw_keys = st.lists(
    st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)), max_size=40
)


@settings(max_examples=60, deadline=None)
@given(pairs=raw_keys, n=word_counts)
def test_philox_words_are_numpys_philox_at_the_lengths_used(pairs, n):
    keys = np.array(pairs, dtype=np.uint64).reshape(len(pairs), 2)
    words = philox_words(keys, n)
    assert words.shape == (len(pairs), n) and words.dtype == np.uint64
    for row, (low, high) in zip(words, pairs):
        assert np.array_equal(row, np.random.Philox(key=low | high << 64).random_raw(n))


# a bound in [2**31, 2**32 - 2] rejects up to half its 32-bit values
bounds = st.one_of(st.integers(1, 2**32 - 2), st.integers(2**31, 2**32 - 2))


def halves(words):
    """Each row's 32-bit halves as Python ints, low half first, as numpy
    takes them."""
    return [[h for w in row.tolist() for h in (w & 0xFFFFFFFF, w >> 32)] for row in words]


def numpy_rejects(words, rng):
    """Which halves of ``words`` numpy's Lemire rule rejects for a draw in
    [0, rng]: those whose product with rng + 1 has its low 32 bits below
    (2**32 - 1 - rng) % (rng + 1)."""
    threshold = (2**32 - 1 - rng) % (rng + 1)
    return [[(h * (rng + 1)) & 0xFFFFFFFF < threshold for h in row] for row in halves(words)]


def assert_numpys_up_to_the_first_rejection(parts, values, rejected, rng):
    for i, (row, flags) in enumerate(zip(values, rejected)):
        want = stream(*parts, i).integers(0, rng + 1, size=len(row))
        first = flags.index(True) if any(flags) else len(row)
        assert np.array_equal(row[:first], want[:first])


@settings(max_examples=150, deadline=None)
@given(parts=key_parts, count=st.integers(0, 6), n=st.integers(0, 20), rng=bounds)
def test_bounded_draws_are_numpys_up_to_the_first_flag(parts, count, n, rng):
    words = philox_words(stream_keys(*parts, count=count), n)
    values = bounded_draws(words, rng)
    assert values.shape == (count, 2 * n)
    assert_numpys_up_to_the_first_rejection(parts, values, numpy_rejects(words, rng), rng)


@settings(max_examples=30, deadline=None)
@given(parts=key_parts, rng=st.integers(2**31, 3 * 2**30))
def test_bounded_draws_flag_what_numpy_rejects(parts, rng):
    # a quarter to a half of these 32-bit values are rejected, so some of
    # 240 draws are; a rejected half is not drawn again
    words = philox_words(stream_keys(*parts, count=6), 20)
    values, rejected = bounded_draws(words, rng), numpy_rejects(words, rng)
    assert any(map(any, rejected))
    assert_numpys_up_to_the_first_rejection(parts, values, rejected, rng)
    for row, row_halves, flags in zip(values.tolist(), halves(words), rejected):
        for value, half, flag in zip(row, row_halves, flags):
            assert not flag or value == (half * (rng + 1)) >> 32


@pytest.mark.parametrize("rng", [0, 2**32 - 1, -1])
def test_bounded_draws_reject_ranges_without_lemire_draws(rng):
    with pytest.raises(ValueError, match="bounded draw range"):
        bounded_draws(np.zeros((1, 1), dtype=np.uint64), rng)
