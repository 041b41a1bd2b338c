import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lteturbo import _checks, turbo
from lteturbo.channel import ChannelConfig
from lteturbo.maxstar import CONSTANT_C, CONSTANT_T, LINEAR_A, LINEAR_T, MaxStarMode
from lteturbo.qpp import QppParams, inverse_permutation, params_for_block_size, permutation
from lteturbo.siso import SisoInput, siso_decode
from lteturbo.trellis import CodeWord, turbo_encode
from lteturbo.turbo import DecoderConfig, run_monte_carlo, simulate_blocks, turbo_decode

from oracles import dyadic, turbo_reference_decode

QPP40 = params_for_block_size(40)


def noiseless_llrs(bits, qpp, magnitude=12.0):
    cw = turbo_encode(bits, qpp)
    scale = lambda b: magnitude * (1.0 - 2.0 * b.astype(float))
    return CodeWord(*(scale(getattr(cw, f.name)) for f in dataclasses.fields(cw)))


def block(ch, i):
    """Row i of batched channel LLRs, as an unbatched CodeWord."""
    return CodeWord(*(getattr(ch, f.name)[i] for f in dataclasses.fields(ch)))


def noisy_llrs(qpp, snr_db, seed):
    sigma2 = ChannelConfig.for_block_size(qpp.n, snr_db).noise_variance
    bits, ch = simulate_blocks(qpp, sigma2, seed, 0, 1)
    return bits[0], block(ch, 0)


class TestDecoderConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecoderConfig(iterations=0)
        with pytest.raises(ValueError):
            DecoderConfig(window_len=0)
        with pytest.raises(ValueError):
            DecoderConfig(acquisition_len=-1)
        with pytest.raises(ValueError):
            DecoderConfig(quantization=(1, 0))

    @pytest.mark.parametrize("field, kwargs", [
        ("iterations", dict(iterations=2.5)),
        ("iterations", dict(iterations=None)),
        ("window_len", dict(window_len=7.5)),
        ("acquisition_len", dict(acquisition_len=3.5)),
        ("bits", dict(quantization=(6.5, 2))),
        ("frac_bits", dict(quantization=(6, 2.5))),
    ], ids=["iterations", "iterations_none", "window_len", "acquisition_len", "quant_bits",
            "quant_frac_bits"])
    def test_rejects_non_integer_settings(self, field, kwargs):
        # a fractional setting would run (or fail deep inside the decoder)
        # instead of being refused where it is given
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            DecoderConfig(**kwargs)

    def test_integer_settings_are_stored_as_python_ints(self):
        config = DecoderConfig(iterations=np.int64(3), window_len=np.uint16(8),
                               acquisition_len=np.int32(4),
                               quantization=(np.int8(6), np.int64(2)))
        values = (config.iterations, config.window_len, config.acquisition_len,
                  *config.quantization)
        assert values == (3, 8, 4, 6, 2)
        assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("quantization", [b"\x06\x02", "62"], ids=["bytes", "str"])
    def test_quantization_is_a_tuple_or_list(self, quantization):
        # bytes were read as (6, 2); a string failed on its first character
        with pytest.raises(TypeError, match="^quantization must be a tuple or list"):
            DecoderConfig(quantization=quantization)

    @pytest.mark.parametrize("kwargs", [
        dict(mode="max-log"), dict(mode=None), dict(mode=3), dict(qpp=40)],
        ids=["mode_name", "mode_none", "mode_int", "qpp_int"])
    def test_rejects_mode_or_qpp_of_another_type(self, kwargs):
        # such a mode decoded with the linear kernel and counted no muls;
        # such a qpp failed inside turbo_decode with an AttributeError
        with pytest.raises(TypeError, match=f"^{next(iter(kwargs))} must be a"):
            DecoderConfig(**kwargs)

    def test_turbo_decode_requires_qpp(self):
        ch = noiseless_llrs(np.zeros(40, dtype=np.uint8), QPP40)
        with pytest.raises(ValueError, match="qpp"):
            turbo_decode(ch, DecoderConfig(iterations=1))

    @pytest.mark.parametrize("ch, config, match", [
        (None, DecoderConfig(iterations=1, qpp=QPP40), "ch must be a CodeWord"),
        ("llrs", DecoderConfig(iterations=1, qpp=QPP40), "ch must be a CodeWord"),
        (np.zeros(132), DecoderConfig(iterations=1, qpp=QPP40), "ch must be a CodeWord"),
        (noiseless_llrs(np.zeros(40, dtype=np.uint8), QPP40), None,
         "config must be a DecoderConfig"),
        (noiseless_llrs(np.zeros(40, dtype=np.uint8), QPP40), QPP40,
         "config must be a DecoderConfig"),
    ], ids=["ch-None", "ch-str", "ch-array", "config-None", "config-QppParams"])
    def test_turbo_decode_argument_types(self, ch, config, match):
        # each raised AttributeError
        with pytest.raises(TypeError, match=match):
            turbo_decode(ch, config)


class TestTurboDecode:
    @pytest.mark.parametrize("mode", list(MaxStarMode))
    def test_noiseless_all_zero(self, mode):
        ch = noiseless_llrs(np.zeros(40, dtype=np.uint8), QPP40)
        res = turbo_decode(ch, DecoderConfig(mode=mode, iterations=1, qpp=QPP40))
        assert not res.hard_bits.any()
        assert (res.final_llrs > 0).all()

    def test_huge_llrs_decode_without_leaving_the_siso_bound(self):
        # the exchanged extrinsics grow with the iterations; unsaturated,
        # decoder 2's lu input left SisoInput's 1e250 bound mid-decode
        qpp = params_for_block_size(1024)
        ch = noiseless_llrs(np.zeros(1024, dtype=np.uint8), qpp, magnitude=1e249)
        res = turbo_decode(ch, DecoderConfig(iterations=4, qpp=qpp))
        assert not res.hard_bits.any()
        assert np.isfinite(res.final_llrs).all() and (res.final_llrs > 0).all()

    @pytest.mark.parametrize("bad", [5.1e249, -1e250, np.inf, np.nan])
    def test_rejects_systematic_llrs_beyond_half_the_siso_bound(self, bad):
        ch = noiseless_llrs(np.zeros(40, dtype=np.uint8), QPP40)
        ch.systematic[3] = bad
        with pytest.raises(ValueError, match=r"systematic LLRs must be finite and within \+-5e\+249"):
            turbo_decode(ch, DecoderConfig(iterations=1, qpp=QPP40))

    def test_hard_decision_rule(self):
        bits, ch = noisy_llrs(QPP40, snr_db=3.0, seed=30)
        res = turbo_decode(ch, DecoderConfig(mode=MaxStarMode.LOG_MAP,
                                             iterations=4, qpp=QPP40))
        assert np.array_equal(res.hard_bits, (res.final_llrs < 0).astype(np.uint8))

    def test_length_mismatch(self):
        ch = noiseless_llrs(np.zeros(40, dtype=np.uint8), QPP40)
        with pytest.raises(ValueError, match="does not match"):
            turbo_decode(ch, DecoderConfig(iterations=1, qpp=params_for_block_size(48)))

    def test_one_iteration_matches_manual_schedule(self):
        # re-derive one full iteration from the component decoder and the
        # permutation alone: SISO-1 on (lu, parity1); its extrinsic,
        # interleaved, joins the interleaved systematic stream for SISO-2
        # on parity2; final LLR = lu + ext1 + deinterleaved ext2
        bits, ch = noisy_llrs(QPP40, snr_db=1.0, seed=31)
        config = DecoderConfig(mode=MaxStarMode.LOG_MAP, iterations=1, qpp=QPP40)
        res = turbo_decode(ch, config)

        pi, ip = permutation(QPP40), inverse_permutation(QPP40)
        s1 = siso_decode(SisoInput(lu=ch.systematic, lc2=ch.parity1,
                                   tail_lu=ch.tail1_info, tail_lc2=ch.tail1_parity),
                         config)
        apriori2 = s1.extrinsic[pi]
        s2 = siso_decode(SisoInput(lu=ch.systematic[pi] + apriori2, lc2=ch.parity2,
                                   tail_lu=ch.tail2_info, tail_lc2=ch.tail2_parity),
                         config)
        want = ch.systematic + s1.extrinsic + s2.extrinsic[ip]
        np.testing.assert_array_equal(res.final_llrs, want)

    @pytest.mark.parametrize("mode", list(MaxStarMode))
    def test_no_max_star_call_reaches_the_input_checks(self, mode, monkeypatch):
        # max_star and max_star_reduce pass float64 arrays on by an
        # identity test, so a decode converts only what enters it: the
        # systematic stream, then per half-iteration the four SisoInput
        # streams and the block's and the tail's branch-metric inputs
        bits, ch = noisy_llrs(QPP40, snr_db=1.0, seed=33)
        calls = []
        convert = _checks.float_arrays
        monkeypatch.setattr(_checks, "float_arrays",
                            lambda *xs: calls.append(len(xs)) or convert(*xs))
        turbo_decode(ch, DecoderConfig(mode=mode, iterations=2, qpp=QPP40))
        assert calls == [1] + [4, 2, 2] * 4

    def test_ops_are_sums_over_half_iterations(self):
        bits, ch = noisy_llrs(QPP40, snr_db=1.0, seed=32)
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=3, qpp=QPP40)
        res = turbo_decode(ch, config)
        one = siso_decode(SisoInput(lu=ch.systematic, lc2=ch.parity1,
                                    tail_lu=ch.tail1_info, tail_lc2=ch.tail1_parity),
                          config).ops
        # each of the 6 half-iterations runs an identically-shaped SISO pass
        for name, value in vars(res.ops).items():
            assert value == 6 * getattr(one, name)
        assert res.ops.llr_reduces == 4 * 40 * 3

    @pytest.mark.parametrize("mode, window_len, quantization", [
        (MaxStarMode.MAX_LOG, None, None),
        (MaxStarMode.LOG_MAP, None, None),
        (MaxStarMode.LINEAR_LOG, 16, None),
        (MaxStarMode.CONSTANT_LOG, None, (6, 2))])
    def test_iteration_trace(self, mode, window_len, quantization):
        # iteration i of the trace is an i-iteration decode, byte for byte,
        # so a BER per iteration needs only fixed-schedule runs
        sigma2 = ChannelConfig.for_block_size(40, 1.0).noise_variance
        _, ch = simulate_blocks(QPP40, sigma2, 33, 0, 3)
        config = DecoderConfig(mode=mode, iterations=4, qpp=QPP40, window_len=window_len,
                               acquisition_len=8, quantization=quantization)
        res = turbo_decode(ch, config, True)   # positional, as perfbench's count pass calls it
        assert len(res.per_iteration_llrs) == 4
        np.testing.assert_array_equal(res.per_iteration_llrs[-1], res.final_llrs)
        for i, llrs in enumerate(res.per_iteration_llrs, start=1):
            alone = turbo_decode(ch, dataclasses.replace(config, iterations=i))
            assert llrs.tobytes() == alone.final_llrs.tobytes()

    def test_batch_matches_single(self):
        # no option couples the blocks of a batch: each decodes exactly
        # as it would alone, for every kernel and exchange schedule
        sigma2 = ChannelConfig.for_block_size(40, 2.0).noise_variance
        _, batch = simulate_blocks(QPP40, sigma2, 34, 0, 4)
        chans = [block(batch, i) for i in range(4)]
        for mode in MaxStarMode:
            for window_len in (None, 16):
                for quantization in (None, (6, 2)):
                    config = DecoderConfig(mode=mode, iterations=2, qpp=QPP40,
                                           window_len=window_len, acquisition_len=8,
                                           quantization=quantization)
                    res_b = turbo_decode(batch, config)
                    for i in range(4):
                        res_1 = turbo_decode(chans[i], config)
                        assert res_b.final_llrs[i].tobytes() == res_1.final_llrs.tobytes()
                        assert res_b.hard_bits[i].tobytes() == res_1.hard_bits.tobytes()

    def test_quantized_decode_round_trips_at_high_snr(self):
        bits, ch = noisy_llrs(QPP40, snr_db=6.0, seed=35)
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=4, qpp=QPP40,
                               quantization=(6, 2))
        assert np.array_equal(turbo_decode(ch, config).hard_bits, bits)


@functools.cache
def bijective_qpps(n):
    """Every QppParams(n, f1, f2) that passes the bijection check."""
    pairs = []
    for f1 in range(1, n, 2):
        for f2 in range(0, n, 2):
            try:
                pairs.append(QppParams(n, f1, f2))
            except ValueError:   # f(x) is no bijection
                pass
    return pairs


@st.composite
def turbo_cases(draw):
    """(channel LLRs of 1-3 blocks, DecoderConfig) for a small drawn QPP.

    The LLRs are a code word's bipolar labels times a drawn mean plus
    noise, all on the 2**-6 grid; windows may not divide n, and the
    acquisition runs from 0 to past the tail."""
    n = draw(st.sampled_from(range(8, 65, 4)))
    qpp = draw(st.sampled_from(bijective_qpps(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mean = draw(st.sampled_from([0.0, 1.0, 4.0]))
    bits = rng.integers(0, 2, (draw(st.integers(1, 3)), n), dtype=np.uint8)
    cw = turbo_encode(bits, qpp)
    noisy = lambda labels: mean * (1.0 - 2.0 * labels) + dyadic(rng, labels.shape, scale=2.0)
    ch = CodeWord(*(noisy(getattr(cw, f.name)) for f in dataclasses.fields(cw)))
    window = draw(st.one_of(st.none(), st.integers(1, n + 4)))
    quant = draw(st.one_of(st.none(), st.integers(2, 16).flatmap(
        lambda bits: st.tuples(st.just(bits), st.integers(0, bits - 1)))))
    config = DecoderConfig(mode=draw(st.sampled_from(list(MaxStarMode))),
                           iterations=draw(st.integers(1, 4)), qpp=qpp, window_len=window,
                           acquisition_len=draw(st.integers(0, n + 4)), quantization=quant)
    return ch, config


class TestTurboReference:
    """turbo_decode against the scalar turbo loop of tests/oracles.py,
    which shares no code with the library, for every schedule: windows,
    acquisition, quantization and batches.  Max-log, constant and linear
    match bit for bit; log-map, whose max* rounds apart from libm's,
    within LOG_MAP_ATOL."""

    LOG_MAP_ATOL = 1e-12   # the worst of 1566 log-map rows drawn read 1.7e-13

    @settings(max_examples=100, deadline=None)
    @given(case=turbo_cases())
    def test_turbo_decode_matches_reference(self, case):
        ch, config = case
        res = turbo_decode(ch, config)
        streams = [getattr(ch, f.name) for f in dataclasses.fields(ch)]
        for b in range(len(ch.systematic)):
            want_llrs, want_bits = turbo_reference_decode(
                *(x[b].tolist() for x in streams), config.qpp.f1, config.qpp.f2,
                config.iterations, config.mode.value, True,
                CONSTANT_C, CONSTANT_T, LINEAR_A, LINEAR_T, window_len=config.window_len,
                acquisition_len=config.acquisition_len, quantization=config.quantization)
            if config.mode is MaxStarMode.LOG_MAP:
                np.testing.assert_allclose(res.final_llrs[b], want_llrs, rtol=0,
                                           atol=self.LOG_MAP_ATOL)
                clear = np.abs(want_llrs) > self.LOG_MAP_ATOL
                assert np.array_equal(res.hard_bits[b][clear], want_bits[clear])
            else:
                assert res.final_llrs[b].tobytes() == want_llrs.tobytes()
                assert res.hard_bits[b].tobytes() == want_bits.tobytes()


def traced_peak(fn):
    """Peak bytes numpy and Python allocate while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_decode_batch_peak_is_bounded_by_the_live_arrays(self):
        # A decode batch peaks inside a SISO call.  Unquantized, it then
        # holds the forward store (7n values per block), the branch-metric
        # table (2n) and the call's input (decoder 1's sum in apriori's
        # buffer, or decoder 2's gathered lu + ext1), plus one block-sized
        # array for the per-stage registers, gathers and numpy's ufunc
        # buffers.  The channel LLRs, and so lu and the parities, are the
        # caller's.  A dead array beside a SISO call (ext1, a SisoResult, a
        # per-iteration combined, the last a-priori or extrinsic vector),
        # the halved inputs beside the table or a four-entry table breaks it.
        n, blocks = 1024, 32
        qpp = params_for_block_size(n)
        _, ch = simulate_blocks(qpp, noise_variance=0.8, seed=34, lo=0, hi=blocks)
        config = DecoderConfig(mode=MaxStarMode.LOG_MAP, iterations=2, qpp=qpp)
        turbo_decode(ch, config)   # one-time allocations are not the decode's
        block = 8 * n * blocks
        assert traced_peak(lambda: turbo_decode(ch, config)) <= (7 + 2 + 2) * block

    def test_quantized_windowed_peak_is_bounded_by_the_live_arrays(self):
        # Quantized, a SISO call holds the store and the table, three
        # block-sized arrays of the decode's own -- the quantized
        # systematic LLRs (lu), the call's input and its parity stream,
        # quantized at the call -- and two more for the lanes' registers,
        # gathers and ufunc buffers.  Both parities quantized for the
        # whole decode, or a quantizer's temporaries, break it.
        n, blocks = 1024, 32
        qpp = params_for_block_size(n)
        _, ch = simulate_blocks(qpp, noise_variance=0.8, seed=34, lo=0, hi=blocks)
        config = DecoderConfig(mode=MaxStarMode.LINEAR_LOG, iterations=2, qpp=qpp, window_len=64,
                               acquisition_len=32, quantization=(6, 2))
        turbo_decode(ch, config)
        block = 8 * n * blocks
        assert traced_peak(lambda: turbo_decode(ch, config)) <= (7 + 2 + 5) * block


class TestMonteCarlo:
    def test_deterministic_for_seed(self):
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=2, qpp=QPP40)
        a = run_monte_carlo(config, 1.0, 30, seed=5)
        b = run_monte_carlo(config, 1.0, 30, seed=5)
        assert (a.bit_errors, a.block_errors) == (b.bit_errors, b.block_errors)

    def test_batch_and_offset_invariance(self, monkeypatch):
        # block b draws from its own (seed, b) stream: batching changes nothing
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=2, qpp=QPP40)
        whole = run_monte_carlo(config, 1.0, 30, seed=5)
        for size in (5, 7):
            monkeypatch.setattr(turbo, "_default_batch_size", lambda n: size)
            part = run_monte_carlo(config, 1.0, 30, seed=5)
            assert (part.blocks, part.bit_errors, part.block_errors) == \
                (whole.blocks, whole.bit_errors, whole.block_errors)
            assert part.ops == whole.ops

    @pytest.mark.parametrize("num_blocks", [-1, -3])
    def test_negative_num_blocks_rejected(self, num_blocks):
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=2, qpp=QPP40)
        with pytest.raises(ValueError, match="num_blocks"):
            run_monte_carlo(config, 1.0, num_blocks, seed=5)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    @pytest.mark.parametrize("num_blocks", [0, 3])
    def test_seed_outside_uint64_rejected(self, seed, num_blocks):
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=2, qpp=QPP40)
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            run_monte_carlo(config, 1.0, num_blocks, seed=seed)

    @pytest.mark.parametrize("num_blocks", [0, 3])
    def test_non_integer_seed_rejected(self, num_blocks):
        # seed 3.7 silently repeated seed 3's run
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=2, qpp=QPP40)
        with pytest.raises(TypeError, match="seed must be an integer"):
            run_monte_carlo(config, 1.0, num_blocks, seed=3.7)

    @pytest.mark.parametrize("snr_db", [-math.inf, math.inf, math.nan])
    def test_non_finite_snr_rejected(self, snr_db):
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=2, qpp=QPP40)
        with pytest.raises(ValueError, match="Eb/N0 must be finite"):
            run_monte_carlo(config, snr_db, 3, seed=5)

    def test_blocks_are_those_of_simulate_blocks(self, monkeypatch):
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=2, qpp=QPP40)
        monkeypatch.setattr(turbo, "_default_batch_size", lambda n: 5)
        mc = run_monte_carlo(config, 0.5, 12, seed=9)
        sigma2 = ChannelConfig.for_block_size(40, 0.5).noise_variance
        bits, ch = simulate_blocks(QPP40, sigma2, 9, 0, 12)
        errors = turbo_decode(ch, config).hard_bits != bits
        assert mc.bit_errors == errors.sum() > 0
        assert mc.block_errors == errors.any(axis=-1).sum()

    @pytest.mark.parametrize("n, batch", [(40, 1024), (256, 1024), (264, 992),
                                          (1024, 256), (6144, 42)])
    def test_batch_size_rule(self, n, batch):
        assert turbo._default_batch_size(n) == batch

    def test_no_batch_stores_more_than_2_18_stages(self):
        # each batch is the largest one within the forward-store budget,
        # up to 1024 blocks
        for n in range(1, 6145):
            batch = turbo._default_batch_size(n)
            assert batch * n <= 2 ** 18
            assert batch == 1024 or (batch + 1) * n > 2 ** 18

    def test_decode_time_is_measured(self):
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=2, qpp=QPP40)
        assert run_monte_carlo(config, 1.0, 3, seed=5).decode_s > 0

    def test_high_snr_is_zero(self):
        config = DecoderConfig(mode=MaxStarMode.LOG_MAP, iterations=3, qpp=QPP40)
        mc = run_monte_carlo(config, 12.0, 20, seed=6)
        assert (mc.blocks, mc.info_bits) == (20, 20 * 40)
        assert (mc.bit_errors, mc.block_errors, mc.ber, mc.fer) == (0, 0, 0.0, 0.0)

    def test_no_blocks_is_zero(self):
        # a rate over 0 bits reads 0, with no NaN and no warning
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=3, qpp=QPP40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc = run_monte_carlo(config, 1.0, 0, seed=6)
        assert (mc.blocks, mc.info_bits, mc.ber, mc.fer) == (0, 0, 0.0, 0.0)

    def test_fixed_schedule_errors_match_trace(self):
        # the BER after i iterations is that of an i-iteration run
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=4, qpp=QPP40)
        sigma2 = ChannelConfig.for_block_size(40, 0.5).noise_variance
        bits, ch = simulate_blocks(QPP40, sigma2, 8, 0, 40)
        trace = turbo_decode(ch, config, trace_iterations=True).per_iteration_llrs
        for i, llrs in enumerate(trace, start=1):
            mc = run_monte_carlo(dataclasses.replace(config, iterations=i), 0.5, 40, seed=8)
            errors = (llrs < 0).astype(bits.dtype) != bits
            assert mc.bit_errors == errors.sum()
            assert mc.block_errors == errors.any(axis=-1).sum()
