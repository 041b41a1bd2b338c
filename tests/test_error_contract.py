"""The library's error contract: a bad argument raises ValueError or TypeError.

Each property drives one entry point with valid, boundary and hostile
values -- None, strings, bytes, complex numbers, NaN and infinities,
floats where integers belong, integers beyond uint64 and float64,
negative sizes -- and accepts a return, a ValueError or a TypeError.
Any other exception fails the property.  Monte-Carlo runs stay at n=40,
one iteration and at most two blocks, so no drawn value can ask for
unbounded work.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lteturbo.channel import ChannelConfig
from lteturbo.maxstar import MaxStarMode
from lteturbo.qpp import params_for_block_size
from lteturbo.siso import SisoInput, quantize_llrs
from lteturbo.turbo import DecoderConfig, run_monte_carlo, simulate_blocks

QPP40 = params_for_block_size(40)

BOUNDARY_INTS = [-1, 0, 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 10 ** 400, -10 ** 400]
NUMBERS = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.sampled_from(BOUNDARY_INTS),
                    st.floats())   # st.floats() draws NaN, +-inf and +-1e308 too
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.binary(max_size=4),
                 st.complex_numbers(max_magnitude=10), st.lists(NUMBERS, max_size=3))
HOSTILE = st.one_of(NUMBERS, JUNK)
ARRAYS = st.one_of(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_side=5)),
                   HOSTILE)


def refused_or_returned(call, *args, **kwargs):
    """call(*args, **kwargs); a ValueError or TypeError is a refusal, and
    any other exception propagates."""
    try:
        call(*args, **kwargs)
    except (ValueError, TypeError):
        pass


@settings(max_examples=150, deadline=None)
@given(mode=st.one_of(st.sampled_from(MaxStarMode), HOSTILE),
       iterations=st.one_of(st.integers(-1, 9), HOSTILE),
       qpp=st.one_of(st.none(), st.just(QPP40), HOSTILE),
       window_len=st.one_of(st.none(), st.integers(-1, 64), HOSTILE),
       acquisition_len=st.one_of(st.integers(-1, 64), HOSTILE),
       quantization=st.one_of(st.none(), st.tuples(st.integers(-1, 17), st.integers(-1, 17)),
                              st.lists(HOSTILE, max_size=3), HOSTILE))
def test_decoder_config(mode, iterations, qpp, window_len, acquisition_len, quantization):
    refused_or_returned(DecoderConfig, mode=mode, iterations=iterations, qpp=qpp,
                        window_len=window_len, acquisition_len=acquisition_len,
                        quantization=quantization)


@st.composite
def siso_streams(draw):
    """lu, lc2, tail_lu and tail_lc2: arrays of one block shape, or hostile."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5))
    tail_shape = shape[:-1] + (3,)

    def stream(s):
        return draw(st.one_of(hnp.arrays(np.float64, s), ARRAYS))

    tails = draw(st.sampled_from([(), (0,), (0, 1)]))   # none, one or both
    tail = [stream(tail_shape) if i in tails else None for i in (0, 1)]
    return stream(shape), stream(shape), *tail


@settings(max_examples=150, deadline=None)
@given(streams=siso_streams())
@example(streams=([10 ** 400], [1.0], None, None))
def test_siso_input(streams):
    lu, lc2, tail_lu, tail_lc2 = streams
    refused_or_returned(SisoInput, lu=lu, lc2=lc2, tail_lu=tail_lu, tail_lc2=tail_lc2)


@settings(max_examples=100, deadline=None)
@given(llrs=ARRAYS, bits=st.one_of(st.integers(-1, 17), HOSTILE),
       frac_bits=st.one_of(st.integers(-1, 17), HOSTILE))
@example(llrs=10 ** 400, bits=6, frac_bits=2)
def test_quantize_llrs(llrs, bits, frac_bits):
    refused_or_returned(quantize_llrs, llrs, bits, frac_bits)


@settings(max_examples=150, deadline=None)
@given(ebn0_db=st.one_of(st.floats(-10, 20), HOSTILE),
       code_rate=st.one_of(st.floats(0, 1), HOSTILE),
       n=st.one_of(st.integers(-20, 6144), HOSTILE))
@example(ebn0_db=1.0, code_rate=0.5, n=-4)
@example(ebn0_db=10 ** 400, code_rate=0.5, n=40)
def test_channel_config(ebn0_db, code_rate, n):
    refused_or_returned(ChannelConfig, ebn0_db=ebn0_db, code_rate=code_rate)
    refused_or_returned(ChannelConfig.for_block_size, n, ebn0_db)


@st.composite
def block_ranges(draw):
    """(lo, hi): an integer lo with hi at most two blocks past it, or hostile.

    A non-integer lo or hi fails before any block is drawn, so only an
    integer pair needs its span bounded."""
    lo = draw(st.one_of(st.integers(-2, 3), st.sampled_from(BOUNDARY_INTS), HOSTILE))
    if isinstance(lo, int):
        hi = draw(st.one_of(st.integers(-1, 2).map(lo.__add__), st.floats(), JUNK))
    else:
        hi = draw(HOSTILE)
    return lo, hi


@settings(max_examples=150, deadline=None)
@given(qpp=st.one_of(st.just(QPP40), HOSTILE),
       noise_variance=st.one_of(st.floats(1e-3, 10), HOSTILE),
       seed=st.one_of(st.integers(0, 2 ** 64 - 1), HOSTILE),
       blocks=block_ranges())
@example(qpp=None, noise_variance=1.0, seed=0, blocks=(0, 2))
def test_simulate_blocks(qpp, noise_variance, seed, blocks):
    refused_or_returned(simulate_blocks, qpp, noise_variance, seed, *blocks)


DECODER_CONFIGS = st.builds(
    DecoderConfig, mode=st.sampled_from(MaxStarMode), iterations=st.just(1),
    qpp=st.one_of(st.just(QPP40), st.none()),
    window_len=st.one_of(st.none(), st.integers(1, 48)),
    acquisition_len=st.integers(0, 48),
    quantization=st.one_of(st.none(), st.sampled_from([(2, 0), (6, 2), (16, 15)])))


@settings(max_examples=100, deadline=None)
@given(config=st.one_of(DECODER_CONFIGS, HOSTILE),
       snr_db=st.one_of(st.floats(-5, 20), HOSTILE),
       num_blocks=st.one_of(st.integers(-3, 2), st.floats(), JUNK),
       seed=st.one_of(st.integers(0, 2 ** 64 - 1), HOSTILE),
       per_iteration=st.booleans())
@example(config=None, snr_db=1.0, num_blocks=2, seed=0, per_iteration=False)
def test_run_monte_carlo(config, snr_db, num_blocks, seed, per_iteration):
    refused_or_returned(run_monte_carlo, config, snr_db, num_blocks, seed,
                        per_iteration=per_iteration)
