"""The seeded stream against numpy's Generator(PCG64(seed)), draw for draw.

numpy is the reference here; the package itself never imports numpy.random.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvloop.sampling import B, Stream

BOUND = st.floats(-10.0, 10.0)
WIDTH = st.floats(0.0, 10.0)
ROWS = st.integers(0, 5)  # zero rows consume nothing


def assert_same_state(ours, bit_generator):
    """Our stream is where numpy's is: LCG state, increment and pending half."""
    state = bit_generator.state
    assert state["state"] == {"state": ours.state, "inc": ours.inc}
    assert state["has_uint32"] == (ours.pending is not None)
    if ours.pending is not None:
        assert state["uinteger"] == ours.pending


@st.composite
def uniform_calls(draw):
    kind = draw(st.sampled_from(["scalar", "columns", "none"]))
    low = draw(BOUND)
    if kind == "none":
        return "uniform", low, low + draw(WIDTH), None
    if kind == "scalar":
        return "uniform", low, low + draw(WIDTH), (draw(ROWS), draw(st.integers(1, 4)))
    lows = draw(st.lists(BOUND, min_size=1, max_size=6))
    highs = [lo + draw(WIDTH) for lo in lows]
    return "uniform", lows, highs, (draw(ROWS), len(lows))


# 1 value draws nothing, 2**32 values take words unchanged, 3*2**30 and
# 2**31 + 1 values reject about a quarter and half of all words
SPANS = st.sampled_from([1, 2, 3, 11, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32]) | st.integers(1, 2**32)
INTEGER_CALLS = st.tuples(
    st.just("integers"), st.integers(-(2**31), 2**31), SPANS, st.none() | st.integers(0, 9)
).map(lambda c: (c[0], c[1], c[1] + c[2], c[3]))


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**130) | st.sampled_from([0, 2**32 - 1, 2**32, 2**128, 2**130]),
    calls=st.lists(uniform_calls() | INTEGER_CALLS, min_size=1, max_size=8),
)
def test_stream_equals_numpy_pcg64(seed, calls):
    ours, ref = Stream(seed), np.random.Generator(np.random.PCG64(seed))
    for method, low, high, size in calls:
        got = getattr(ours, method)(low, high, size)
        want = getattr(ref, method)(low, high, size)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want), (method, low, high, size)
        assert_same_state(ours, ref.bit_generator)
    assert np.array_equal(ours.uniform(0.0, 1.0, 3), ref.uniform(0.0, 1.0, 3))


def test_long_draws_and_rejection_heavy_ranges():
    ours, ref = Stream(7919), np.random.Generator(np.random.PCG64(7919))
    assert np.array_equal(ours.uniform(-5.0, 5.0, (1000, 7)), ref.uniform(-5.0, 5.0, (1000, 7)))
    for size in (4097, 1, 333):
        assert np.array_equal(ours.integers(0, 3 * 2**30, size), ref.integers(0, 3 * 2**30, size))


@pytest.mark.parametrize("seed", [0, 7919, 2**128 + 5])
def test_raw_draws_across_jump_table_blocks(seed):
    # an offset draw of 7 before each size moves the call's block starts off
    # multiples of B in the stream
    ours, ref = Stream(seed), np.random.PCG64(seed)
    for n in (0, 1, B - 1, B, B + 1, 2 * B + 1, 10**5):
        assert np.array_equal(ours._raw(7), ref.random_raw(7))
        assert np.array_equal(ours._raw(n), ref.random_raw(n)), n
        assert_same_state(ours, ref)


@pytest.mark.parametrize("span", [2**32, 3 * 2**30])
def test_pending_high_half_across_a_block_end(span):
    # 2B - 1 words take B raw draws, one whole block, and leave the high half
    # of the block's last draw pending: the next call starts with it, then
    # draws from a new block; at 3 * 2**30 values rejections shift the ends
    ours, ref = Stream(11), np.random.Generator(np.random.PCG64(11))
    for size in (2 * B - 1, 2 * B, 1, 2 * B + 1, 4 * B - 1, 3):
        assert np.array_equal(ours.integers(-7, span - 7, size), ref.integers(-7, span - 7, size))
        assert_same_state(ours, ref.bit_generator)


def test_bad_seeds_bounds_and_ranges_raise():
    with pytest.raises(ValueError, match="non-negative"):
        Stream(-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a non-finite span raises without a RuntimeWarning
        with pytest.raises(OverflowError):
            Stream(0).uniform([-1.0, -1e308], [1.0, 1e308], (2, 2))
        with pytest.raises(OverflowError):
            Stream(0).uniform(-1e308, 1e308)
    with pytest.raises(ValueError, match="high - low < 0"):
        Stream(0).uniform([0.0, 1.0], [1.0, 0.0], (1, 2))
    with pytest.raises(ValueError):
        Stream(0).integers(0, 2**32 + 1, 3)
    with pytest.raises(ValueError):
        Stream(0).integers(5, 5, 3)
