from dataclasses import replace

import numpy as np
import pytest

from lteturbo.channel import ChannelConfig, ChannelLlrs, transmit
from lteturbo.maxstar import MaxStarMode
from lteturbo.qpp import inverse_permutation, params_for_block_size, permutation
from lteturbo.siso import SisoInput, siso_decode
from lteturbo.trellis import turbo_encode
from lteturbo.turbo import (DecoderConfig, ber_vs_iterations, run_monte_carlo,
                            turbo_decode)

QPP40 = params_for_block_size(40)


def noiseless_llrs(bits, qpp, magnitude=12.0):
    cw = turbo_encode(bits, qpp)
    scale = lambda b: magnitude * (1.0 - 2.0 * b.astype(float))
    return ChannelLlrs(
        lu=scale(cw.systematic), parity1=scale(cw.parity1), parity2=scale(cw.parity2),
        tail1_info=scale(cw.tail.enc1_info), tail1_parity=scale(cw.tail.enc1_parity),
        tail2_info=scale(cw.tail.enc2_info), tail2_parity=scale(cw.tail.enc2_parity))


def noisy_llrs(qpp, snr_db, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, qpp.n, dtype=np.uint8)
    sigma2 = ChannelConfig.for_block_size(qpp.n, snr_db).noise_variance
    return bits, transmit(turbo_encode(bits, qpp), sigma2, seed)


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

    def test_num_windows(self):
        assert DecoderConfig().num_windows(40) == 1
        assert DecoderConfig(window_len=16).num_windows(40) == 3

    def test_turbo_decode_requires_qpp(self):
        ch = noiseless_llrs(np.zeros(40, dtype=np.uint8), QPP40)
        with pytest.raises(ValueError, match="qpp"):
            turbo_decode(ch, DecoderConfig(iterations=1))


class TestTurboDecode:
    @pytest.mark.parametrize("mode", list(MaxStarMode))
    def test_noiseless_all_zero(self, mode):
        ch = noiseless_llrs(np.zeros(40, dtype=np.uint8), QPP40)
        res = turbo_decode(ch, DecoderConfig(mode=mode, iterations=1, qpp=QPP40))
        assert not res.hard_bits.any()
        assert (res.final_llrs > 0).all()
        assert res.half_iterations_run == 2

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
        s1 = siso_decode(SisoInput(lu=ch.lu, lc2=ch.parity1,
                                   tail_lu=ch.tail1_info, tail_lc2=ch.tail1_parity),
                         config)
        apriori2 = s1.extrinsic[pi]
        s2 = siso_decode(SisoInput(lu=ch.lu[pi] + apriori2, lc2=ch.parity2,
                                   tail_lu=ch.tail2_info, tail_lc2=ch.tail2_parity),
                         config)
        want = ch.lu + s1.extrinsic + s2.extrinsic[ip]
        np.testing.assert_array_equal(res.final_llrs, want)

    def test_ops_are_sums_over_half_iterations(self):
        bits, ch = noisy_llrs(QPP40, snr_db=1.0, seed=32)
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=3, qpp=QPP40)
        res = turbo_decode(ch, config)
        one = siso_decode(SisoInput(lu=ch.lu, lc2=ch.parity1,
                                    tail_lu=ch.tail1_info, tail_lc2=ch.tail1_parity),
                          config).ops
        # each of the 6 half-iterations runs an identically-shaped SISO pass
        for name, value in vars(res.ops).items():
            assert value == 6 * getattr(one, name)
        assert res.ops.llr_reduces == 4 * 40 * 3

    def test_iteration_trace(self):
        bits, ch = noisy_llrs(QPP40, snr_db=1.0, seed=33)
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=3, qpp=QPP40)
        res = turbo_decode(ch, config, trace_iterations=True)
        assert len(res.per_iteration_llrs) == 3
        np.testing.assert_array_equal(res.per_iteration_llrs[-1], res.final_llrs)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(34)
        bits = rng.integers(0, 2, (4, 40), dtype=np.uint8)
        sigma2 = ChannelConfig.for_block_size(40, 2.0).noise_variance
        chans = [transmit(turbo_encode(bits[i], QPP40), sigma2, 100 + i)
                 for i in range(4)]
        batch = ChannelLlrs(*(np.stack([getattr(c, f) for c in chans])
                              for f in ("lu", "parity1", "parity2", "tail1_info",
                                        "tail1_parity", "tail2_info", "tail2_parity")))
        config = DecoderConfig(mode=MaxStarMode.LOG_MAP, iterations=2, qpp=QPP40)
        res_b = turbo_decode(batch, config)
        for i in range(4):
            res_1 = turbo_decode(chans[i], config)
            np.testing.assert_allclose(res_b.final_llrs[i], res_1.final_llrs, atol=1e-9)

    def test_quantized_decode_round_trips_at_high_snr(self):
        bits, ch = noisy_llrs(QPP40, snr_db=6.0, seed=35)
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=4, qpp=QPP40,
                               quantization=(6, 2))
        assert np.array_equal(turbo_decode(ch, config).hard_bits, bits)


class TestDecodeToConvergence:
    def test_noiseless_stops_after_two_iterations(self):
        ch = noiseless_llrs(np.zeros(40, dtype=np.uint8), QPP40)
        config = DecoderConfig(mode=MaxStarMode.LOG_MAP, iterations=8, qpp=QPP40)
        res = turbo_decode(ch, config, stop_on_repeat=True)
        assert res.half_iterations_run == 4
        assert not res.hard_bits.any()

    def test_single_iteration_equals_turbo_decode(self):
        bits, ch = noisy_llrs(QPP40, snr_db=0.0, seed=36)
        config = DecoderConfig(mode=MaxStarMode.LOG_MAP, iterations=1, qpp=QPP40)
        a = turbo_decode(ch, config, stop_on_repeat=True)
        b = turbo_decode(ch, config)
        np.testing.assert_array_equal(a.final_llrs, b.final_llrs)
        assert a.half_iterations_run == 2

    def test_no_early_stop_equals_fixed_count(self):
        # when the stop rule never fires, the result must match the fixed
        # schedule bit for bit
        config8 = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=4, qpp=QPP40)
        for seed in range(37, 47):
            bits, ch = noisy_llrs(QPP40, snr_db=-2.0, seed=seed)
            res = turbo_decode(ch, config8, stop_on_repeat=True)
            if res.half_iterations_run == 8:
                fixed = turbo_decode(ch, config8)
                np.testing.assert_array_equal(res.hard_bits, fixed.hard_bits)
                break
        else:
            pytest.skip("every seed converged early at -2 dB")

    def test_validation(self):
        ch = noiseless_llrs(np.zeros(40, dtype=np.uint8), QPP40)
        config = DecoderConfig(iterations=1, qpp=QPP40)
        with pytest.raises(ValueError):
            turbo_decode(ch, replace(config, iterations=0), stop_on_repeat=True)

    def test_trace_covers_exactly_the_iterations_run(self):
        # one decode loop serves both the trace and the stop rule
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=8, qpp=QPP40)
        cases = [noiseless_llrs(np.zeros(40, dtype=np.uint8), QPP40)]
        cases += [noisy_llrs(QPP40, snr_db=0.0, seed=seed)[1] for seed in (48, 49)]
        for ch in cases:
            res = turbo_decode(ch, config, trace_iterations=True, stop_on_repeat=True)
            assert len(res.per_iteration_llrs) * 2 == res.half_iterations_run
            np.testing.assert_array_equal(res.per_iteration_llrs[-1], res.final_llrs)
            np.testing.assert_array_equal(res.hard_bits, res.final_llrs < 0)
        assert turbo_decode(cases[0], config, trace_iterations=True,
                            stop_on_repeat=True).half_iterations_run == 4


class TestMonteCarlo:
    def test_deterministic_for_seed(self):
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=2, qpp=QPP40)
        a = run_monte_carlo(config, 1.0, 30, seed=5)
        b = run_monte_carlo(config, 1.0, 30, seed=5)
        assert (a.bit_errors, a.block_errors) == (b.bit_errors, b.block_errors)

    def test_batch_and_offset_invariance(self):
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=2, qpp=QPP40)
        whole = run_monte_carlo(config, 1.0, 30, seed=5)
        part1 = run_monte_carlo(config, 1.0, 12, seed=5, batch_size=5)
        part2 = run_monte_carlo(config, 1.0, 18, seed=5, block_offset=12,
                                batch_size=7)
        assert whole.bit_errors == part1.bit_errors + part2.bit_errors
        assert whole.block_errors == part1.block_errors + part2.block_errors

    def test_decode_time_is_measured(self):
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=2, qpp=QPP40)
        assert run_monte_carlo(config, 1.0, 3, seed=5).decode_s > 0

    def test_ber_vs_iterations_high_snr_is_zero(self):
        config = DecoderConfig(mode=MaxStarMode.LOG_MAP, iterations=3, qpp=QPP40)
        table = ber_vs_iterations(12.0, config, num_blocks=20, seed=6)
        assert table.shape == (3,)
        assert (table == 0).all()

    def test_ber_vs_iterations_deterministic(self):
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=3, qpp=QPP40)
        a = ber_vs_iterations(0.5, config, num_blocks=25, seed=7)
        b = ber_vs_iterations(0.5, config, num_blocks=25, seed=7)
        assert np.array_equal(a, b)

    def test_per_iteration_errors_match_final(self):
        config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=4, qpp=QPP40)
        mc = run_monte_carlo(config, 0.5, 40, seed=8, per_iteration=True)
        assert mc.per_iteration_bit_errors[-1] == mc.bit_errors
        assert mc.info_bits == 40 * 40
