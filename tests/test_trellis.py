import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lteturbo.maxstar import MaxStarMode
from lteturbo.qpp import params_for_block_size, permutation
from lteturbo.trellis import EDGES, rsc_encode, turbo_encode
from lteturbo.turbo import DecoderConfig, simulate_blocks, turbo_decode

from oracles import ref_rsc_encode


class TestTrellisStructure:
    def test_size_and_degrees(self):
        assert len(EDGES) == 16
        # ordered by (start state, information bit): u = +1 is bit 0
        assert [(e.start_state, e.u) for e in EDGES] == [
            (s, u) for s in range(8) for u in (1, -1)]
        out_deg = np.zeros(8, dtype=int)
        in_deg = np.zeros(8, dtype=int)
        for e in EDGES:
            out_deg[e.start_state] += 1
            in_deg[e.end_state] += 1
        assert (out_deg == 2).all() and (in_deg == 2).all()

    def test_state_zero_transitions(self):
        quiet = [e for e in EDGES if e.start_state == 0 and e.u == 1]
        assert quiet == [EDGES[0]]
        assert quiet[0].end_state == 0 and quiet[0].parity_bit == 0
        active = [e for e in EDGES if e.start_state == 0 and e.u == -1][0]
        assert active.end_state != 0 and active.parity_bit == 1

    def test_butterfly_sign_structure(self):
        # within each butterfly -- two start states sharing their two end
        # states -- every edge has the same u*c2, so the u=+1 edges carry
        # one branch metric (g1 or -g2) and the u=-1 edges its negation
        for starts in [(2 * t, 2 * t + 1) for t in range(4)]:
            leaving = [e for e in EDGES if e.start_state in starts]
            assert len(leaving) == 4
            assert len({e.end_state for e in leaving}) == 2
            labels = {(e.u, e.c2) for e in leaving}
            assert labels in ({(1, 1), (-1, -1)}, {(1, -1), (-1, 1)})

    def test_edges_match_reference_simulator(self):
        edge_set = {(e.start_state, e.u, e.end_state, e.c2) for e in EDGES}
        seen = set()
        rng = np.random.default_rng(1)
        for _ in range(50):
            bits = rng.integers(0, 2, 32).tolist()
            parity, tail_i, tail_p, states = ref_rsc_encode(bits)
            for k, (b, p) in enumerate(zip(bits + tail_i, parity + tail_p)):
                step = (states[k], 1 - 2 * b, states[k + 1], 1 - 2 * p)
                assert step in edge_set
                seen.add(step)
        assert seen == edge_set  # every edge exercised


class TestRscEncode:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rsc_encode(np.array([], dtype=np.uint8))

    @pytest.mark.parametrize("bits, error", [
        (np.full(5, 3), ValueError), (np.full(5, 0.5), ValueError),
        (np.array([0, 1, np.nan]), ValueError), (np.array(1), ValueError),
        (["0", "1"], TypeError), ([1j, 0], TypeError), (10 ** 400, TypeError),
    ], ids=["3", "0.5", "nan", "0-d", "strings", "complex", "beyond-int64"])
    def test_only_0_or_1_bits(self, bits, error):
        # 3 was encoded as [3 0 3 0 0], 0.5 as a 0
        with pytest.raises(error, match="bits"):
            rsc_encode(bits)

    def test_bool_and_float_bits(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)
        for same in (bits.astype(bool), bits.astype(float), bits.tolist()):
            for got, want in zip(rsc_encode(same), rsc_encode(bits)):
                assert got.dtype == np.uint8 and np.array_equal(got, want)

    def test_all_zero_input(self):
        parity, tail_info, tail_parity = rsc_encode(np.zeros(8, dtype=np.uint8))
        assert not parity.any()
        assert not tail_info.any() and not tail_parity.any()

    def test_impulse_response(self):
        # single 1 followed by zeros; reference value re-derived with the
        # independent bit-level simulator in oracles.py
        impulse = [1, 0, 0, 0, 0, 0, 0, 0]
        ref_parity, ref_ti, ref_tp, _ = ref_rsc_encode(impulse)
        assert ref_parity == [1, 1, 1, 1, 0, 0, 1, 0]
        parity, tail_info, tail_parity = rsc_encode(impulse)
        assert parity.tolist() == ref_parity
        assert tail_info.tolist() == ref_ti
        assert tail_parity.tolist() == ref_tp

    def test_matches_reference_on_random_blocks(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            bits = rng.integers(0, 2, 40)
            ref_parity, ref_ti, ref_tp, states = ref_rsc_encode(bits.tolist())
            parity, tail_info, tail_parity = rsc_encode(bits)
            assert parity.tolist() == ref_parity
            assert tail_info.tolist() == ref_ti
            assert tail_parity.tolist() == ref_tp
            assert states[-1] == 0  # tail terminates every block

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6144), lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference_for_any_length_and_batch(self, n, lead, seed):
        # the loop-free encoder against the bit-level shift register, for
        # every block length the code supports and any leading axes
        bits = np.random.default_rng(seed).integers(0, 2, lead + (n,), dtype=np.uint8)
        parity, tail_info, tail_parity = rsc_encode(bits)
        assert parity.shape == bits.shape
        assert tail_info.shape == tail_parity.shape == lead + (3,)
        for idx in np.ndindex(lead):
            ref_parity, ref_ti, ref_tp, _ = ref_rsc_encode(bits[idx].tolist())
            assert parity[idx].tolist() == ref_parity
            assert tail_info[idx].tolist() == ref_ti
            assert tail_parity[idx].tolist() == ref_tp

    def test_gf2_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.integers(0, 2, 24, dtype=np.uint8)
            b = rng.integers(0, 2, 24, dtype=np.uint8)
            pa, *_ = rsc_encode(a)
            pb, *_ = rsc_encode(b)
            pab, *_ = rsc_encode(a ^ b)
            assert np.array_equal(pab, pa ^ pb)

    @settings(max_examples=100, deadline=None)
    @given(pair=st.integers(1, 48).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n))))
    def test_encoder_is_linear_over_gf2(self, pair):
        # the code, tail included, is linear: the encoding of a ^ b is the
        # XOR of the two reference encodings, and the encoder matches it
        a, b = (np.array(v, dtype=np.uint8) for v in pair)
        ref_a, ref_b = ref_rsc_encode(a.tolist()), ref_rsc_encode(b.tolist())
        for got, wa, wb in zip(rsc_encode(a ^ b), ref_a[:3], ref_b[:3]):
            assert got.tolist() == (np.array(wa) ^ np.array(wb)).tolist()

    def test_termination_for_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            bits = rng.integers(0, 2, rng.integers(1, 50))
            *_, states = ref_rsc_encode(bits.tolist())
            assert states[-1] == 0

    def test_batched_encode_matches_single(self):
        rng = np.random.default_rng(5)
        blocks = rng.integers(0, 2, (6, 16), dtype=np.uint8)
        batched = rsc_encode(blocks)
        for i in range(6):
            for got, want in zip(batched, rsc_encode(blocks[i])):
                assert np.array_equal(got[i], want)


class TestTurboEncode:
    def test_all_zero(self):
        qpp = params_for_block_size(40)
        cw = turbo_encode(np.zeros(40, dtype=np.uint8), qpp)
        assert not any(getattr(cw, f.name).any() for f in dataclasses.fields(cw))

    def test_parity2_is_encoded_permutation(self):
        qpp = params_for_block_size(40)
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, 40, dtype=np.uint8)
        cw = turbo_encode(bits, qpp)
        assert np.array_equal(cw.systematic, bits)
        assert np.array_equal(cw.parity1, rsc_encode(bits)[0])
        assert np.array_equal(cw.parity2, rsc_encode(bits[permutation(qpp)])[0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="block size"):
            turbo_encode(np.zeros(48, dtype=np.uint8), params_for_block_size(40))

    @pytest.mark.parametrize("bits, error", [
        (np.full(40, 2), ValueError), (np.full(40, 0.5), ValueError),
        (np.array(0), ValueError), (np.full(40, "1"), TypeError), (None, TypeError),
    ], ids=["2", "0.5", "0-d", "strings", "None"])
    def test_only_0_or_1_bits(self, bits, error):
        # 2 reached the systematic stream, 0.5 became a 0, and a 0-d input
        # raised IndexError
        with pytest.raises(error, match="bits"):
            turbo_encode(bits, params_for_block_size(40))

    def test_high_snr_round_trip(self):
        qpp = params_for_block_size(40)
        bits, ch = simulate_blocks(qpp, noise_variance=1e-2, seed=11, lo=0, hi=4)
        config = DecoderConfig(mode=MaxStarMode.LOG_MAP, iterations=2, qpp=qpp)
        assert np.array_equal(turbo_decode(ch, config).hard_bits, bits)
