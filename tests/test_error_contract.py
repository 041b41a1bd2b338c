"""The library's error contract: a bad argument raises ValueError or TypeError.

Each property drives one entry point with valid, boundary and hostile
values -- None, strings, bytes, complex numbers, NaN and infinities,
floats where integers belong, integers beyond uint64 and float64,
negative sizes -- and accepts a return, a ValueError or a TypeError.
Any other exception fails the property.  Monte-Carlo runs stay at n=40,
one iteration and at most two blocks, so no drawn value can ask for
unbounded work.  The last property holds the turbosim command line to
its documented exit codes in the same way.
"""

import io
import numbers
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lteturbo import cli
from lteturbo.channel import (ChannelConfig, block_rng, bpsk_modulate, llr_demap,
                              serialize_codeword, split_llrs)
from lteturbo.maxstar import MaxStarMode, max_star, max_star_reduce
from lteturbo.qpp import (QppParams, block_sizes, inverse_permutation, params_for_block_size,
                          permutation, qpp_index)
from lteturbo.siso import SisoInput, compute_branch_metrics, quantize_llrs, siso_decode
from lteturbo.trellis import CodeWord, rsc_encode, turbo_encode
from lteturbo.turbo import DecoderConfig, run_monte_carlo, simulate_blocks, turbo_decode

QPP40 = params_for_block_size(40)

BOUNDARY_INTS = [-1, 0, 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 10 ** 400, -10 ** 400]
NUMBERS = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.sampled_from(BOUNDARY_INTS),
                    st.floats())   # st.floats() draws NaN, +-inf and +-1e308 too
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.binary(max_size=4),
                 st.complex_numbers(max_magnitude=10), st.lists(NUMBERS, max_size=3))
HOSTILE = st.one_of(NUMBERS, JUNK)
ARRAYS = st.one_of(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_side=5)),
                   HOSTILE)


def refused_with(call, *args):
    """The ValueError or TypeError call(*args) raises, or None if it returns."""
    try:
        call(*args)
    except (ValueError, TypeError) as exc:
        return exc


def real_numbers(x):
    """Whether every value of x is a real number; None, text, bytes and
    complex numbers are not, an integer beyond float64 is."""
    return all(isinstance(v, numbers.Real) for v in np.asarray(x, dtype=object).flat)


def refused_or_returned(call, *args, **kwargs):
    """call(*args, **kwargs), or None for a refusal, a ValueError or
    TypeError; any other exception propagates."""
    try:
        return call(*args, **kwargs)
    except (ValueError, TypeError):
        return None


@settings(max_examples=150, deadline=None)
@given(mode=st.one_of(st.sampled_from(MaxStarMode), HOSTILE),
       iterations=st.one_of(st.integers(-1, 9), HOSTILE),
       qpp=st.one_of(st.none(), st.just(QPP40), HOSTILE),
       window_len=st.one_of(st.none(), st.integers(-1, 64), HOSTILE),
       acquisition_len=st.one_of(st.integers(-1, 64), HOSTILE),
       quantization=st.one_of(st.none(), st.tuples(st.integers(-1, 17), st.integers(-1, 17)),
                              st.lists(HOSTILE, max_size=3), HOSTILE))
@example(mode=MaxStarMode.MAX_LOG, iterations=1, qpp=None, window_len=None,
         acquisition_len=0, quantization=b"\x06\x02")
def test_decoder_config(mode, iterations, qpp, window_len, acquisition_len, quantization):
    refused_or_returned(DecoderConfig, mode=mode, iterations=iterations, qpp=qpp,
                        window_len=window_len, acquisition_len=acquisition_len,
                        quantization=quantization)
    if not isinstance(quantization, (tuple, list, type(None))):
        # only a tuple or list is a quantization; bytes were read as (6, 2)
        with pytest.raises(TypeError, match="quantization"):
            DecoderConfig(mode=MaxStarMode.MAX_LOG, quantization=quantization)


@st.composite
def siso_streams(draw):
    """lu, lc2, tail_lu and tail_lc2: arrays of one block shape, or hostile."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5))
    tail_shape = shape[:-1] + (3,)

    def stream(s):
        return draw(st.one_of(hnp.arrays(np.float64, s), ARRAYS))

    return stream(shape), stream(shape), stream(tail_shape), stream(tail_shape)


@settings(max_examples=150, deadline=None)
@given(streams=siso_streams())
@example(streams=([10 ** 400], [1.0], np.zeros(3), np.zeros(3)))
@example(streams=([10 ** 400], [None], np.zeros(3), np.zeros(3)))
@example(streams=([10 ** 400], [1.0], np.zeros(3), None))
def test_siso_input(streams):
    # the kinds of all four streams are checked before any value
    refusal = refused_with(SisoInput, *streams)
    assert isinstance(refusal, TypeError) != all(map(real_numbers, streams))


@settings(max_examples=100, deadline=None)
@given(llrs=ARRAYS, bits=st.one_of(st.integers(-1, 17), HOSTILE),
       frac_bits=st.one_of(st.integers(-1, 17), HOSTILE))
@example(llrs=10 ** 400, bits=6, frac_bits=2)
@example(llrs=[10 ** 400, 1.0], bits=6, frac_bits=2)
@example(llrs=None, bits=6, frac_bits=2)
@example(llrs=[None, 1.0], bits=6, frac_bits=2)
@example(llrs="1.5", bits=6, frac_bits=2)
@example(llrs=["1", 2], bits=6, frac_bits=2)
@example(llrs=[1j], bits=6, frac_bits=2)
def test_quantize_llrs(llrs, bits, frac_bits):
    refused_or_returned(quantize_llrs, llrs, bits, frac_bits)
    # values that are no real numbers are the wrong kind; None was NaN, "1.5" was 1.5
    assert isinstance(refused_with(quantize_llrs, llrs, 6, 2), TypeError) != real_numbers(llrs)


@settings(max_examples=150, deadline=None)
@given(ebn0_db=st.one_of(st.floats(-10, 20), HOSTILE),
       code_rate=st.one_of(st.floats(0, 1), HOSTILE),
       n=st.one_of(st.integers(-20, 6144), HOSTILE))
@example(ebn0_db=1.0, code_rate=0.5, n=-4)
@example(ebn0_db=10 ** 400, code_rate=0.5, n=40)
def test_channel_config(ebn0_db, code_rate, n):
    refused_or_returned(ChannelConfig, ebn0_db=ebn0_db, code_rate=code_rate)
    refused_or_returned(ChannelConfig.for_block_size, n, ebn0_db)


@settings(max_examples=100, deadline=None)
@given(received=ARRAYS, noise_variance=st.one_of(st.floats(1e-3, 10), HOSTILE))
@example(received=[1.0], noise_variance=10 ** 400)
@example(received=10 ** 400, noise_variance=1.0)
@example(received=[10 ** 400, 1.0], noise_variance=1.0)
@example(received=None, noise_variance=1.0)
@example(received=[None, 1.0], noise_variance=1.0)
@example(received="1.5", noise_variance=1.0)
@example(received=["1", 2], noise_variance=1.0)
@example(received=1j, noise_variance=1.0)
@example(received=[1e308], noise_variance=1.0)
@example(received=[1e300], noise_variance=1e-10)
def test_llr_demap(received, noise_variance):
    llrs = refused_or_returned(llr_demap, received, noise_variance)
    assert isinstance(refused_with(llr_demap, received, 1.0), TypeError) != real_numbers(received)
    if llrs is not None:
        # a finite received value whose LLR is beyond float64 is refused, not made +-inf
        assert np.isfinite(llrs[np.isfinite(np.asarray(received, dtype=np.float64))]).all()


BIT_DTYPES = st.sampled_from([np.uint8, np.int64, np.float64])


def bit_arrays(shapes):
    """0/1 arrays of the drawn shapes, arrays of any float of those shapes,
    short lists that may hold a value other than 0 or 1, or hostile values."""
    return st.one_of(
        shapes.flatmap(lambda shape: hnp.arrays(BIT_DTYPES, shape, elements=st.sampled_from([0, 1]))),
        shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape)),
        st.lists(st.sampled_from([0, 1, 2, -1, 0.5, True]), max_size=6), HOSTILE)


def only_bits(bits):
    return bool(np.isin(np.asarray(bits), (0, 1)).all())


@settings(max_examples=150, deadline=None)
@given(bits=bit_arrays(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=9)))
@example(bits=np.full(5, 3))
@example(bits=np.full(5, 0.5))
def test_rsc_encode(bits):
    # returned only for 0/1 bits, and then as 0/1 bits
    encoded = refused_or_returned(rsc_encode, bits)
    if encoded is not None:
        assert only_bits(bits) and all(only_bits(stream) for stream in encoded)


@settings(max_examples=100, deadline=None)
@given(bits=bit_arrays(st.sampled_from([(40,), (2, 40), (0, 40), (39,), ()])))
@example(bits=np.full(40, 2))
@example(bits=np.full(40, 0.5))
@example(bits=np.array(0))
def test_turbo_encode(bits):
    cw = refused_or_returned(turbo_encode, bits, QPP40)
    if cw is not None:
        assert np.array_equal(cw.systematic, bits)
        assert all(only_bits(getattr(cw, f.name)) for f in fields(cw))


@settings(max_examples=150, deadline=None)
@given(llrs=st.one_of(hnp.arrays(np.float64, st.sampled_from([(132,), (2, 132), (12,), (0,)])),
                      ARRAYS),
       n=st.one_of(st.sampled_from([40, 0, -4]), HOSTILE))
@example(llrs=np.zeros(0), n=-4)
@example(llrs=np.zeros(132), n=40.0)
def test_split_llrs(llrs, n):
    ch = refused_or_returned(split_llrs, llrs, n)
    if ch is not None:
        assert n >= 1 and ch.systematic.shape[-1] == n


@settings(max_examples=100, deadline=None)
@given(x=st.one_of(st.integers(-2, 41), HOSTILE))
@example(x=1.5)
def test_qpp_index(x):
    fx = refused_or_returned(qpp_index, QPP40, x)
    if fx is not None:
        assert isinstance(x, int) and fx == (10 * x * x + 3 * x) % 40


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
       seed=st.one_of(st.integers(0, 2 ** 64 - 1), HOSTILE))
@example(config=None, snr_db=1.0, num_blocks=2, seed=0)
@example(config=DecoderConfig(iterations=1, qpp=QPP40), snr_db=1.0, num_blocks=0, seed=0)
def test_run_monte_carlo(config, snr_db, num_blocks, seed):
    mc = refused_or_returned(run_monte_carlo, config, snr_db, num_blocks, seed)
    if mc is not None:   # no blocks read 0, not NaN
        assert 0 <= mc.ber <= 1 and 0 <= mc.fer <= 1


@st.composite
def channel_llrs(draw):
    """A code word of LLRs, unbatched or two blocks, n=40 or 48, some of
    them NaN, infinite or beyond the decoder's bound."""
    n = draw(st.sampled_from([40, 48]))
    shape = draw(st.sampled_from([(), (2,)])) + (3 * n + 12,)
    values = st.one_of(st.floats(-30, 30), st.sampled_from([np.nan, np.inf, -1e300]))
    return split_llrs(draw(hnp.arrays(np.float64, shape, elements=values)), n)


PARITY_AND_TAILS = [np.ones(40)] * 2 + [np.ones(3)] * 4   # beside an n=40 systematic stream


@settings(max_examples=60, deadline=None)
@given(ch=st.one_of(channel_llrs(), st.builds(CodeWord, *[ARRAYS] * 7), HOSTILE),
       config=st.one_of(DECODER_CONFIGS, HOSTILE))
@example(ch=None, config=DecoderConfig(iterations=1, qpp=QPP40))
@example(ch=split_llrs(np.ones(132), 40), config=None)
@example(ch=CodeWord([1.0] * 40, *PARITY_AND_TAILS),
         config=DecoderConfig(iterations=1, qpp=QPP40))
@example(ch=CodeWord(None, *PARITY_AND_TAILS),
         config=DecoderConfig(iterations=1, qpp=QPP40))
@example(ch=CodeWord("1.5", *PARITY_AND_TAILS),
         config=DecoderConfig(iterations=1, qpp=QPP40))
@example(ch=CodeWord(np.float64(1.0), *PARITY_AND_TAILS),
         config=DecoderConfig(iterations=1, qpp=QPP40))
def test_turbo_decode(ch, config):
    refused_or_returned(turbo_decode, ch, config)


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(st.sampled_from([40, 42, 12, 6144, 6148]), st.integers(-8, 200), HOSTILE),
       f1=st.one_of(st.integers(-1, 45), HOSTILE), f2=st.one_of(st.integers(-1, 45), HOSTILE))
@example(n=40, f1=3, f2="a")
@example(n=40.0, f1=3, f2=10)
def test_qpp_params(n, f1, f2):
    # an n beyond 6144 is refused before the bijection check's np.arange(n)
    params = refused_or_returned(QppParams, n, f1, f2)
    if params is not None:
        assert all(type(v) is int for v in (params.n, params.f1, params.f2))
        assert np.array_equal(np.sort(permutation(params)), np.arange(params.n))


@settings(max_examples=100, deadline=None)
@given(n=st.one_of(st.sampled_from(block_sizes()), st.integers(-8, 7000), HOSTILE))
@example(n=40.0)
def test_params_for_block_size(n):
    params = refused_or_returned(params_for_block_size, n)
    if params is not None:
        assert type(params.n) is int and params.n == n


@settings(max_examples=100, deadline=None)
@given(params=st.one_of(st.just(QPP40), HOSTILE), x=st.one_of(st.integers(-2, 41), HOSTILE))
@example(params=None, x=1)
@example(params=40, x=1)
def test_interleaver_of_hostile_params(params, x):
    pi = refused_or_returned(permutation, params)
    ip = refused_or_returned(inverse_permutation, params)
    fx = refused_or_returned(qpp_index, params, x)
    assert (pi is None) == (ip is None)
    if pi is not None:
        assert np.array_equal(ip[pi], np.arange(params.n))
        assert fx is None or fx == pi[int(x)]


@settings(max_examples=100, deadline=None)
@given(seed=st.one_of(st.integers(0, 2 ** 64 - 1), HOSTILE),
       block_index=st.one_of(st.integers(0, 2 ** 64 - 1), HOSTILE))
def test_block_rng(seed, block_index):
    refused_or_returned(block_rng, seed, block_index)


@settings(max_examples=100, deadline=None)
@given(bits=bit_arrays(hnp.array_shapes(min_dims=0, max_dims=2, max_side=5)))
@example(bits=[10 ** 400])
@example(bits=[2, 0.5])
@example(bits=None)
@example(bits="1")
def test_bpsk_modulate(bits):
    # returned only for 0/1 bits; [2, 0.5] gave [-3, 0]
    symbols = refused_or_returned(bpsk_modulate, bits)
    if symbols is not None:
        assert only_bits(bits) and set(np.unique(symbols)) <= {-1.0, 1.0}


@settings(max_examples=100, deadline=None)
@given(cw=st.one_of(st.builds(CodeWord, *[ARRAYS] * 7),
                    st.sampled_from([turbo_encode(np.zeros(40), QPP40),
                                     split_llrs(np.zeros((2, 132)), 40)]),
                    HOSTILE))
@example(cw=None)
@example(cw=QPP40)
def test_serialize_codeword(cw):
    refused_or_returned(serialize_codeword, cw)


@settings(max_examples=100, deadline=None)
@given(lu=ARRAYS, lc2=ARRAYS)
@example(lu=[10 ** 400], lc2=[1.0])
@example(lu=[10 ** 400], lc2=[None])
@example(lu=[np.inf], lc2=[np.inf])   # inf - inf: a ValueError, not a RuntimeWarning
@example(lu=[1e308], lc2=[1e308])     # an overflowing sum: the same
def test_compute_branch_metrics(lu, lc2):
    table = refused_or_returned(compute_branch_metrics, lu, lc2)
    if table is not None:   # stage-major: (stages, 2, ...), or (2,) for one stage
        assert table.shape[min(1, table.ndim - 1)] == 2
    refusal = refused_with(compute_branch_metrics, lu, lc2)
    assert isinstance(refusal, TypeError) != (real_numbers(lu) and real_numbers(lc2))


@st.composite
def siso_inputs(draw):
    """A SisoInput of one block or two, n in 1..9, with a drawn or an
    all-zero tail, its LLRs up to SisoInput's bound."""
    lead = draw(st.sampled_from([(), (2,)]))
    n = draw(st.integers(1, 9))
    llrs = st.one_of(st.floats(-30, 30), st.sampled_from([1e250, -1e250]))

    def stream(width):
        return draw(hnp.arrays(np.float64, lead + (width,), elements=llrs))

    tail = [stream(3), stream(3)] if draw(st.booleans()) else [np.zeros(lead + (3,))] * 2
    return SisoInput(stream(n), stream(n), *tail)


@settings(max_examples=100, deadline=None)
@given(inp=st.one_of(siso_inputs(), HOSTILE), config=st.one_of(DECODER_CONFIGS, HOSTILE))
@example(inp=None, config=None)
@example(inp=SisoInput(np.zeros(4), np.zeros(4), np.zeros(3), np.zeros(3)), config=None)
def test_siso_decode(inp, config):
    result = refused_or_returned(siso_decode, inp, config)
    if result is not None:
        assert result.llr_out.shape == inp.lu.shape
        assert np.isfinite(result.llr_out).all()


@settings(max_examples=150, deadline=None)
@given(x=ARRAYS, y=ARRAYS, mode=st.one_of(st.sampled_from(MaxStarMode), HOSTILE))
@example(x=10 ** 400, y=1, mode=MaxStarMode.LOG_MAP)
@example(x=10 ** 400, y=None, mode=MaxStarMode.MAX_LOG)
@example(x=1.0, y=2.0, mode="log-map")
@example(x=None, y=1.0, mode=MaxStarMode.MAX_LOG)
@example(x=1.0, y=[None, 1.0], mode=MaxStarMode.MAX_LOG)
@example(x="1.5", y=1.0, mode=MaxStarMode.LOG_MAP)
@example(x=["1", 2], y=1.0, mode=MaxStarMode.MAX_LOG)
@example(x=1.0, y=np.array([1j]), mode=MaxStarMode.MAX_LOG)
def test_max_star(x, y, mode):
    # a mode that is no MaxStarMode is the wrong kind, whatever x and y,
    # and so is a value that is no real number: None was NaN, "1.5" was 1.5
    refusal = refused_with(max_star, x, y, mode)
    valid = isinstance(mode, MaxStarMode) and real_numbers(x) and real_numbers(y)
    assert isinstance(refusal, TypeError) != valid


@settings(max_examples=150, deadline=None)
@given(values=ARRAYS, mode=st.one_of(st.sampled_from(MaxStarMode), HOSTILE))
@example(values=[10 ** 400, 1.0], mode=MaxStarMode.LOG_MAP)
@example(values=[1.0], mode="junk")
@example(values=None, mode=MaxStarMode.MAX_LOG)
@example(values=[None, 1.0], mode=MaxStarMode.MAX_LOG)
@example(values="1.5", mode=MaxStarMode.LOG_MAP)
@example(values=["1", 2], mode=MaxStarMode.MAX_LOG)
@example(values=np.array([1j, 2]), mode=MaxStarMode.MAX_LOG)
def test_max_star_reduce(values, mode):
    # as for max_star; ["1", 2] was 2.0
    refusal = refused_with(max_star_reduce, values, mode)
    valid = isinstance(mode, MaxStarMode) and real_numbers(values)
    assert isinstance(refusal, TypeError) != valid


# ---------------------------------------------------------------------------
# The command line's contract: every turbosim run ends in a documented
# exit code, and a non-zero one prints exactly one `turbosim:` line on
# stderr.  cli.main runs in this process.  No drawn value asks for more
# than n=40, two blocks, one iteration and three SNR points: a valid
# value stays within those, and a hostile one fails before decoding.

BIG = str(10 ** 30)


def _free_text(key):
    """Short arbitrary text that gives no larger run than the fixed values."""
    def small(text):
        if key == "snr-db":
            try:
                return len(cli._parse_snr_range(text)) <= 3
            except cli._CliError:
                return True
        try:
            return int(text) <= 1
        except ValueError:
            return True
    return st.text(max_size=6).filter(small)


# (valid values, boundary and hostile values) of each option
CLI_VALUES = {
    "n": (["40"], ["41", "0", "-40", BIG, "-" + BIG, "4e1", "nan", ""]),
    "alg": (cli._ALGS, [",".join(cli._ALGS), "max-log,max-log", ",", "MAX-LOG",
                        "max-log\nlog-map", ""]),
    "iters": (["1"], ["0", "-1", "-" + BIG, "1.5", "nan"]),
    "blocks": (["1", "2"], ["0", "-3", "-" + BIG, "2.0", "inf"]),
    "seed": (["0", str(2 ** 64 - 1)], ["-1", str(2 ** 64), BIG, "0.5"]),
    "window-len": (["1", "8", "40", BIG], ["0", "-1", "-" + BIG]),
    "acq-len": (["0", "4", "64", BIG], ["-1", "-" + BIG]),
    "quant": (["6:2", "16:15", "2:0"], ["1:0", "99:1", "6", "6:2:1", "a:b", BIG + ":2", ""]),
    "threads": (["1", "2", BIG, "-" + BIG, "0"], ["abc", "1.5", ""]),
    "snr-db": (["1", "-5", "1000", "0:1:2"],
               ["nan", "inf", "-inf", "1e400", "1000.5", "0:0:1", "2:1:0", "0:1e-300:1",
                "0:nan:1", "0:1", "1:2:3:4"]),
}
OUT_KINDS = (["file", "odd-name"], ["dir", "missing-dir", "empty"])
CONFIG_KINDS = (["cfg", "odd-cfg"], ["bad-bytes", "dir", "missing-cfg"])
if os.path.exists("/dev/full"):
    OUT_KINDS[1].append("dev-full")
    CONFIG_KINDS[1].append("dev-full")
COMMAND_KEYS = {"ber": list(CLI_VALUES) + ["out"], "bench": list(CLI_VALUES) + ["out"],
                "interleave": ["n", "out"]}
SIZE_KEYS = {"n", "iters", "blocks"}   # their defaults ask for a larger run
FILE_JUNK = ["# comment", "", "   ", "no equals sign", "bogus=1", "=1", "N=40"]
ARGV_JUNK = ["--bogus", "stray", "-x", "--", "x\ny", "\udcff", "--n=abc", "--snr-db", "--s"]


def _sometimes(draw, valid, hostile):
    """One of valid, or (about one time in four) one of hostile."""
    return draw(hostile if draw(st.integers(0, 3)) == 0 else valid)


@st.composite
def cli_runs(draw):
    """A plan for one run: the command, where each option goes (argv, the
    config file or both) with its value, and junk for both.  Most values
    are valid, so that a run gets past one check to the next."""
    command = _sometimes(draw, st.sampled_from(["ber", "bench", "interleave"]),
                         st.sampled_from(["", "bogus", None]))
    config = _sometimes(draw, st.sampled_from([None] + CONFIG_KINDS[0]),
                        st.sampled_from(CONFIG_KINDS[1]))
    keys = COMMAND_KEYS.get(command, [])
    spoiled = {draw(st.sampled_from(keys)) for _ in range(draw(st.integers(0, 2)) if keys else 0)}
    options = []
    for key in keys:
        places = ["argv"] + (["file", "both"] if config else [])
        if key not in SIZE_KEYS or command == "interleave":
            places.append("absent")
        place = draw(st.sampled_from(places))
        valid, hostile = OUT_KINDS if key == "out" else CLI_VALUES[key]
        if key in spoiled and key != "out":
            hostile = hostile + [draw(_free_text(key))]
        value = draw(st.sampled_from(hostile if key in spoiled else valid))
        if place != "absent":
            options.append((key, place, value, draw(st.booleans())))
    options = draw(st.permutations(options))
    file_junk = _sometimes(draw, st.just([]), st.lists(st.sampled_from(FILE_JUNK), max_size=2))
    argv_junk = _sometimes(draw, st.just([]), st.lists(st.sampled_from(ARGV_JUNK), max_size=2))
    return command, config, options, file_junk, argv_junk


def _build_argv(tmp, plan):
    command, config, options, file_junk, argv_junk = plan
    paths = {"file": "out.csv", "odd-name": "\udcff.out", "dir": ".",
             "missing-dir": "no/out.csv", "cfg": "sim.cfg", "odd-cfg": "\udcff.cfg",
             "bad-bytes": "sim.cfg", "missing-cfg": "no.cfg"}
    paths = {kind: os.path.join(tmp, name) for kind, name in paths.items()}
    paths.update({"dev-full": "/dev/full", "empty": ""})
    argv = [] if command is None else [command]
    lines = list(file_junk)
    for key, place, value, joined in options:
        value = paths[value] if key == "out" else value
        if place in ("argv", "both"):
            argv += [f"--{key}={value}"] if joined else [f"--{key}", value]
        if place in ("file", "both"):
            lines.append(f"{key}={value}")
    if config:
        data = "\n".join(lines).encode("utf-8", "surrogateescape")
        if config == "bad-bytes":
            data += b"\n\xc3("   # not UTF-8
        if config in ("cfg", "odd-cfg", "bad-bytes"):
            with open(paths[config], "wb") as fh:
                fh.write(data)
        argv += ["--config", paths[config]]
    return argv + argv_junk


@settings(max_examples=200, deadline=None)
@given(plan=cli_runs())
@example(plan=("ber", None, [], [], ["--n", "abc"]))
@example(plan=("ber", "bad-bytes", [("n", "file", "40", True)], [], []))
def test_turbosim_exit_codes(plan):
    with tempfile.TemporaryDirectory() as tmp:
        argv = _build_argv(tmp, plan)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    assert code in {0, 2, 3, 4, 5, 6}, (argv, code)
    lines = err.getvalue().splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith("turbosim: "), (argv, lines)
    else:
        assert lines == [], (argv, lines)
