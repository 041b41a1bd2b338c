import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lteturbo import turbo
from lteturbo.channel import (ChannelConfig, block_rng, bpsk_modulate,
                              llr_demap, rekey_block_rng, serialize_codeword,
                              split_llrs)
from lteturbo.qpp import QppParams, params_for_block_size
from lteturbo.trellis import turbo_encode
from lteturbo.turbo import simulate_blocks

QPP40 = params_for_block_size(40)


def sent_symbols(bits, qpp):
    """The BPSK symbols of each block's code word, in transmission order."""
    return bpsk_modulate(serialize_codeword(turbo_encode(bits, qpp)))


def received(ch, noise_variance):
    """Undo the demapper: each block's received values, in transmission order."""
    streams = [getattr(ch, f.name) for f in dataclasses.fields(ch)]
    return np.concatenate(streams, axis=-1) * (noise_variance / 2)


def simulated_noise(qpp, noise_variance, seed, blocks):
    bits, ch = simulate_blocks(qpp, noise_variance, seed, 0, blocks)
    return received(ch, noise_variance) - sent_symbols(bits, qpp)


class TestModulation:
    def test_mapping(self):
        assert bpsk_modulate([0]).tolist() == [1.0]
        assert bpsk_modulate([1]).tolist() == [-1.0]
        assert bpsk_modulate([0, 1, 0]).tolist() == [1.0, -1.0, 1.0]


class TestChannelConfig:
    def test_noise_variance_formula(self):
        # sigma^2 = 1 / (2 R 10^(EbN0/10)); R=1/3 at 0 dB gives 1.5
        cfg = ChannelConfig(ebn0_db=0.0, code_rate=1.0 / 3.0)
        assert cfg.noise_variance == pytest.approx(1.5)

    def test_tail_adjusted_rate(self):
        cfg = ChannelConfig.for_block_size(40, 1.0)
        assert cfg.code_rate == pytest.approx(40 / 132)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(ebn0_db=0.0, code_rate=0.0)

    @pytest.mark.parametrize("n, error", [
        (0, ValueError), (-4, ValueError), (-5, ValueError),
        (1.5, TypeError), (40.0, TypeError), (None, TypeError)])
    def test_block_size_is_a_positive_integer(self, n, error):
        # -4 divided by zero and -5 gave code rate 5/3
        with pytest.raises(error):
            ChannelConfig.for_block_size(n, 1.0)

    @pytest.mark.parametrize("ebn0_db", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_ebn0(self, ebn0_db):
        with pytest.raises(ValueError, match="Eb/N0 must be finite"):
            ChannelConfig.for_block_size(40, ebn0_db)

    @pytest.mark.parametrize("ebn0_db, code_rate, match", [
        (3100.0, 40 / 132, "Eb/N0"),     # 10**310 overflows
        (4000.0, 40 / 132, "Eb/N0"),
        (-3100.0, 40 / 132, "Eb/N0"),    # variance overflows to inf
        (-3300.0, 40 / 132, "Eb/N0"),    # 10**-330 underflows to 0
        (0.0, math.inf, "code rate"),    # variance 0
        (0.0, math.nan, "code rate"),    # variance NaN
    ])
    def test_rejects_configs_without_a_finite_positive_variance(
            self, ebn0_db, code_rate, match):
        with pytest.raises(ValueError, match=match):
            ChannelConfig(ebn0_db=ebn0_db, code_rate=code_rate)


class TestAwgn:
    """The additive white Gaussian noise of simulate_blocks."""

    def test_vanishing_noise(self):
        bits, ch = simulate_blocks(QPP40, 1e-12, 1, 0, 4)
        assert np.abs(received(ch, 1e-12) - sent_symbols(bits, QPP40)).max() < 1e-5

    def test_seed_determinism(self):
        a = simulate_blocks(QPP40, 1.0, 2, 0, 8)
        b = simulate_blocks(QPP40, 1.0, 2, 0, 8)
        c = simulate_blocks(QPP40, 1.0, 3, 0, 8)
        assert a[0].tobytes() == b[0].tobytes()
        assert received(a[1], 1.0).tobytes() == received(b[1], 1.0).tobytes()
        assert not np.array_equal(received(a[1], 1.0), received(c[1], 1.0))

    def test_moments(self):
        # 55 blocks of 3 * 6144 + 12 samples: just over 10**6
        noise = simulated_noise(params_for_block_size(6144), 1.0, 3, 55)
        assert abs(noise.mean()) < 0.01
        assert 0.99 <= noise.var() <= 1.01

    def test_variance_scaling(self):
        noise = simulated_noise(params_for_block_size(6144), 0.25, 4, 55)
        assert 0.99 * 0.25 <= noise.var() <= 1.01 * 0.25

    def test_rejects_bad_variance(self):
        for noise_variance in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="noise variance"):
                simulate_blocks(QPP40, noise_variance, 0, 0, 4)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), lo=st.integers(0, 2 ** 64 - 3),
           n=st.integers(1, 1536).map(lambda k: 4 * k))
    @example(seed=12, lo=5, n=40)
    @example(seed=0, lo=0, n=4)             # n = 4 (mod 8): half a word left over
    @example(seed=1, lo=2 ** 64 - 3, n=6140)
    @example(seed=2, lo=7, n=6144)
    def test_noise_follows_the_bits_on_the_block_stream(self, seed, lo, n):
        # block b: the bits of integers(0, 2, n, dtype=np.uint8), then 3n + 12
        # Gaussians, both from block_rng(seed, b).  simulate_blocks takes the
        # bits from ceil(n/8) raw Philox words, so this holds numpy's sampler
        # to that for every n that QppParams admits
        qpp, sigma2 = QppParams(n, 1, 0), 0.7
        bits, ch = simulate_blocks(qpp, sigma2, seed, lo, lo + 3)
        for i in range(3):
            rng = block_rng(seed, lo + i)
            want_bits = rng.integers(0, 2, n, dtype=np.uint8)
            assert bits[i].tobytes() == want_bits.tobytes()
            rx = sent_symbols(want_bits, qpp) + np.sqrt(sigma2) * rng.standard_normal(3 * n + 12)
            want = split_llrs(llr_demap(rx, sigma2), n)
            for f in dataclasses.fields(want):
                assert getattr(ch, f.name)[i].tobytes() == getattr(want, f.name).tobytes()


class TestDemap:
    def test_spot_values(self):
        assert llr_demap(1.0, 1.0) == 2.0
        assert llr_demap(0.0, 0.123) == 0.0
        assert llr_demap(-0.5, 0.5) == -2.0

    def test_rejects_bad_variance(self):
        # the values simulate_blocks rejects; NaN gave NaN LLRs, inf zeros
        for noise_variance in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="noise variance"):
                llr_demap(np.ones(3), noise_variance)

    @pytest.mark.parametrize("call", [lambda v: llr_demap([1.0], v),
                                      lambda v: simulate_blocks(QPP40, v, 0, 0, 1)],
                             ids=["llr_demap", "simulate_blocks"])
    @pytest.mark.parametrize("value, error", [(10 ** 400, ValueError), ("2", TypeError)],
                             ids=["beyond_float64", "string"])
    def test_one_noise_variance_rule(self, call, value, error):
        # 10**400 raised OverflowError in llr_demap and an unnamed
        # TypeError from np.sqrt in simulate_blocks; float() would take "2"
        with pytest.raises(error, match="noise variance"):
            call(value)

    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 200)
        llrs = llr_demap(bpsk_modulate(bits), 1.0)
        assert np.array_equal((llrs < 0).astype(int), bits)


class TestBlockRng:
    def test_streams_are_independent_of_each_other(self):
        a = block_rng(1, 0).standard_normal(8)
        b = block_rng(1, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_streams_are_reproducible(self):
        assert np.array_equal(block_rng(9, 4).standard_normal(8),
                              block_rng(9, 4).standard_normal(8))

    @pytest.mark.parametrize("key", [(-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64)])
    def test_rejects_key_words_outside_uint64(self, key):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            block_rng(*key)

    @pytest.mark.parametrize("key, name", [
        ((1.5, 0), "seed"), ((np.float64(2.0), 0), "seed"), ((0, 1.0), "block index")])
    def test_rejects_non_integer_key_words(self, key, name):
        # a float was truncated to another run's key: 1.5 gave seed 1's stream
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            block_rng(*key)

    def test_numpy_integer_key_words(self):
        a = block_rng(np.uint64(2 ** 64 - 1), np.int8(3)).standard_normal(4)
        assert a.tobytes() == block_rng(2 ** 64 - 1, 3).standard_normal(4).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), b=st.integers(0, 2 ** 64 - 1),
           other=st.tuples(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1)),
           normals=st.integers(0, 9), n=st.integers(1, 300))
    def test_rekey_gives_the_fresh_block_stream(self, seed, b, other, normals, n):
        # leave the generator mid-buffer and holding a cached uint32
        rng = block_rng(*other)
        rng.standard_normal(normals)
        rng.integers(0, 2 ** 32, 1, dtype=np.uint32)
        rekey_block_rng(rng, seed, b)
        fresh = block_rng(seed, b)
        for draw in (lambda g: g.integers(0, 2, n, dtype=np.uint8),
                     lambda g: g.standard_normal(3 * n + 12)):
            assert draw(rng).tobytes() == draw(fresh).tobytes()

    def test_rekey_checks_its_key_words(self):
        rng = block_rng(0, 0)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            rekey_block_rng(rng, 0, 2 ** 64)
        with pytest.raises(TypeError, match="block index must be an integer"):
            rekey_block_rng(rng, 0, 0.5)


class TestSimulateBlocks:
    def test_shapes(self):
        bits, ch = simulate_blocks(QPP40, 1.0, 7, 3, 6)
        assert bits.shape == (3, 40) and bits.dtype == np.uint8
        assert ch.systematic.shape == (3, 40) and ch.tail1_info.shape == (3, 3)
        bits, ch = simulate_blocks(QPP40, 1.0, 7, 6, 6)
        assert bits.shape == (0, 40) and ch.tail2_parity.shape == (0, 3)

    def test_bits_come_first_on_the_block_stream(self):
        # perfbench's independent rebuild_block relies on this order
        bits, _ = simulate_blocks(QPP40, 1.0, 21, 0, 6)
        for b in range(6):
            want = block_rng(21, b).integers(0, 2, 40, dtype=np.uint8)
            assert bits[b].tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1),
           noise_variance=st.floats(0.01, 10.0),
           span=st.integers(0, 63).flatmap(
               lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, 64))))
    def test_batch_is_the_row_stack_of_single_blocks(self, seed, noise_variance, span):
        lo, hi = span
        bits, ch = simulate_blocks(QPP40, noise_variance, seed, lo, hi)
        singles = [simulate_blocks(QPP40, noise_variance, seed, b, b + 1)
                   for b in range(lo, hi)]
        assert bits.tobytes() == np.concatenate([s[0] for s in singles]).tobytes()
        for f in dataclasses.fields(ch):
            stacked = np.concatenate([getattr(s[1], f.name) for s in singles])
            assert getattr(ch, f.name).tobytes() == stacked.tobytes()

    def test_one_generator_per_range(self, monkeypatch):
        # later blocks re-key it: block_rng is built once, also across a
        # run's batches (1024 + 76 blocks at n=40)
        calls = []
        monkeypatch.setattr(turbo, "block_rng",
                            lambda *key: calls.append(key) or block_rng(*key))
        simulate_blocks(QPP40, 1.0, 4, 3, 9)
        simulate_blocks(QPP40, 1.0, 4, 9, 9)
        assert calls == [(4, 3)]
        config = turbo.DecoderConfig(iterations=1, qpp=QPP40)
        calls.clear()
        turbo.run_monte_carlo(config, 1.0, 1100, seed=4)
        assert calls == [(4, 0), (4, 1024)]

    def test_non_integer_seed_rejected(self):
        # seed 3.7 silently repeated seed 3's blocks
        with pytest.raises(TypeError, match="seed must be an integer"):
            simulate_blocks(QPP40, 1.0, 3.7, 0, 2)

    def test_extreme_keys(self):
        bits, _ = simulate_blocks(QPP40, 1.0, 2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64)
        want = block_rng(2 ** 64 - 1, 2 ** 64 - 1).integers(0, 2, 40, dtype=np.uint8)
        assert bits[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed, lo, hi", [
        (-1, 0, 1), (2 ** 64, 0, 1), (-1, 0, 0), (0, -1, 1), (0, 5, 4),
        (0, 2 ** 64, 2 ** 64 + 1)])
    def test_rejects_keys_and_ranges(self, seed, lo, hi):
        with pytest.raises(ValueError, match=r"2\*\*64"):
            simulate_blocks(QPP40, 1.0, seed, lo, hi)


class TestSerialization:
    def test_split_inverts_serialize(self):
        qpp = params_for_block_size(40)
        rng = np.random.default_rng(6)
        cw = turbo_encode(rng.integers(0, 2, 40, dtype=np.uint8), qpp)
        flat = serialize_codeword(cw)
        assert flat.shape == (132,)
        llrs = llr_demap(bpsk_modulate(flat), 2.0)
        ch = split_llrs(llrs, 40)
        # the same seven streams in the same order, each a view of llrs
        for sent, got in zip(dataclasses.fields(cw), dataclasses.fields(ch)):
            stream = getattr(ch, got.name)
            assert np.array_equal((stream < 0).astype(np.uint8), getattr(cw, sent.name))
            assert np.shares_memory(stream, llrs)

    def test_split_length_check(self):
        with pytest.raises(ValueError):
            split_llrs(np.zeros(100), 40)

    @pytest.mark.parametrize("llrs, n, error", [
        (np.zeros(0), -4, ValueError), (np.zeros(12), 0, ValueError),
        (np.zeros(132), 40.0, TypeError), (np.zeros(132), "40", TypeError),
    ], ids=["-4", "0", "40.0", "str"])
    def test_split_block_size_is_a_positive_integer(self, llrs, n, error):
        # n=-4 returned a code word of 0 LLRs, and 40.0 failed in np.split
        with pytest.raises(error, match="block size|n must be an integer"):
            split_llrs(llrs, n)

    def test_split_refuses_a_scalar(self):
        with pytest.raises(ValueError, match="expected 132 LLRs"):
            split_llrs(1.0, 40)
