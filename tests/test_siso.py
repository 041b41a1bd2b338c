import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lteturbo.maxstar import (CONSTANT_C, CONSTANT_T, LINEAR_A, LINEAR_T,
                              METRIC_NEG_INF, MaxStarMode, max_star)
from lteturbo import siso
from lteturbo.siso import (SisoInput, compute_branch_metrics, quantize_llrs,
                           siso_decode, track_metric_allocations, track_stage_times)
from lteturbo.trellis import EDGES
from lteturbo.turbo import DecoderConfig

from oracles import (dyadic, exhaustive_llrs, naive_state_update,
                     window_reference_llrs)

ALL_MODES = list(MaxStarMode)


ZERO_TAIL = (np.zeros(3), np.zeros(3))


def row(inp, i):
    """Block i of a batched SisoInput, alone."""
    return SisoInput(inp.lu[i], inp.lc2[i], inp.tail_lu[i], inp.tail_lc2[i])


def random_siso_input(rng, n, dyadic_grid=False):
    draw = (lambda shape: dyadic(rng, shape)) if dyadic_grid else (
        lambda shape: rng.normal(0, 4, shape))
    return SisoInput(lu=draw((n,)), lc2=draw((n,)),
                     tail_lu=draw((3,)), tail_lc2=draw((3,)))


class TestBranchMetrics:
    def test_zero(self):
        table = compute_branch_metrics(0.0, 0.0)
        assert table.shape == (2,) and np.array_equal(table, np.zeros(2))
        assert not np.signbit(table).any()

    def test_three_stream_sum(self):
        # lu carries the systematic and a-priori streams summed;
        # the table is [lu + lc2, lu - lc2]: the u=0 edges' two metrics
        assert np.array_equal(compute_branch_metrics(1.0 + 2.0, 3.0), [6.0, 0.0])
        assert np.array_equal(compute_branch_metrics(1.0 + 2.0, 5.0), [8.0, -2.0])
        assert np.array_equal(compute_branch_metrics(3.0, 0.0), [3.0, 3.0])
        assert compute_branch_metrics(np.zeros((5, 7)), np.zeros((5, 7))).shape == (5, 2, 7)

    def test_derived_signs(self):
        # row 0 of each state is its u=0 edge and adds g[K], row 1 its u=1
        # edge and subtracts it: over both directions this must give every
        # trellis edge, once each, its half-scale metric (u*lu + c2*lc2)/2
        # exactly
        edges = {(e.start_state, e.end_state): e for e in EDGES}
        rng = np.random.default_rng(28)
        for _ in range(50):
            lu, lc2 = rng.normal(0, 4, 2)
            g = compute_branch_metrics(0.5 * lu, 0.5 * lc2)
            for wiring, forward in ((siso._FWD, True), (siso._BWD, False)):
                far, k = wiring
                seen = set()
                for row, sign, u in ((0, 1.0, 1), (1, -1.0, -1)):
                    for s in range(8):
                        key = (far[row, s], s) if forward else (s, far[row, s])
                        e = edges[key]
                        assert e.u == u, (key, row)
                        assert sign * g[k[s]] == (e.u * lu + e.c2 * lc2) / 2, (key, row)
                        seen.add(key)
                assert seen == set(edges)
        # the backward rows are the oracle's fold order: the LLR folds
        # read row 0 (the u=0 edges) and row 1, each by start state
        order = [(s, far) for row in siso._BWD[0] for s, far in enumerate(row)]
        assert order == sorted(edges, key=lambda se: (-edges[se].u, se[0]))

    def test_table_axis(self):
        # the table is stage-major: stage k's (2, ...) table is table[k]
        lu, lc2 = np.random.default_rng(26).normal(0, 3, (2, 5, 6, 7))
        table = compute_branch_metrics(lu, lc2)
        assert table.shape == (5, 2, 6, 7) and table.flags.c_contiguous
        assert table.tobytes() == np.stack([lu + lc2, lu - lc2], axis=1).tobytes()
        # a 0-d stream pair is one stage
        assert table[4, :, 5, 6].tobytes() == compute_branch_metrics(lu[4, 5, 6],
                                                                     lc2[4, 5, 6]).tobytes()


def stage_step(prev, gamma_table, direction, mode):
    """One normalized stage of the decoder's forward or backward recursion."""
    wiring = {"forward": siso._FWD, "backward": siso._BWD}[direction]
    return siso._kernel(prev, gamma_table, wiring, mode)


class TestButterflyUpdate:
    def test_all_zero_is_fixed_point(self):
        bm = compute_branch_metrics(0.0, 0.0)
        out = stage_step(np.zeros(8), bm, "forward", MaxStarMode.MAX_LOG)
        assert np.array_equal(out, np.zeros(8))

    def test_single_step_from_origin(self):
        # one forward step from the known start state with zero metrics:
        # only state 0 and the input-1 successor of state 0 are reachable
        start = np.full(8, METRIC_NEG_INF)
        start[0] = 0.0
        out = stage_step(start, compute_branch_metrics(0.0, 0.0),
                         "forward", MaxStarMode.MAX_LOG)
        succ1 = next(e.end_state for e in EDGES if e.start_state == 0 and e.u == -1)
        assert succ1 == 4
        for s in range(8):
            if s in (0, succ1):
                assert out[s] == 0.0
            else:
                assert out[s] <= -1.0e12   # still at the sentinel

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_matches_naive_edge_enumeration(self, mode, direction):
        # seeded by parametrize position, the same in every process
        seed = 2 * ALL_MODES.index(mode) + ["forward", "backward"].index(direction)
        rng = np.random.default_rng(seed)
        fn = lambda a, b: max_star(a, b, mode)
        for _ in range(300):
            prev = rng.normal(0, 10, 8)
            lu, lc2 = rng.normal(0, 5, 2)
            got = stage_step(prev, compute_branch_metrics(lu, lc2), direction, mode)
            want = naive_state_update(EDGES, prev, lu, lc2, direction, fn)
            np.testing.assert_allclose(got, want - want[0], atol=1e-12)


def config_for(mode, **kw):
    return DecoderConfig(mode=mode, iterations=1, **kw)


class TestSisoDecode:
    def test_noiseless_all_zero_codeword(self):
        n = 24
        inp = SisoInput(lu=np.full(n, 20.0), lc2=np.full(n, 20.0),
                        tail_lu=np.full(3, 20.0), tail_lc2=np.full(3, 20.0))
        for mode in ALL_MODES:
            res = siso_decode(inp, config_for(mode))
            assert (res.llr_out > 10).all()
            assert not (res.llr_out < 0).any()

    def test_exhaustive_app_oracle_log_map(self):
        rng = np.random.default_rng(10)
        for _ in range(6):
            inp = random_siso_input(rng, 8)
            res = siso_decode(inp, config_for(MaxStarMode.LOG_MAP))
            want = exhaustive_llrs(inp.lu, inp.lc2, inp.tail_lu, inp.tail_lc2)
            np.testing.assert_allclose(res.llr_out, want, atol=1e-6)

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 60, 2.0 ** 600],
                             ids=["1", "2**60", "2**600"])
    def test_best_sequence_oracle_max_log_exact(self, scale):
        # dyadic-grid inputs keep every sum exact in float64, so the
        # decoder output and the brute-force best-sequence LLRs must be
        # bit-identical; scaled by a power of two they stay exact, and
        # the unreachable-state sentinel must stay below every path
        rng = np.random.default_rng(12)
        for _ in range(6):
            inp = random_siso_input(rng, 8, dyadic_grid=True)
            inp = SisoInput(lu=scale * inp.lu, lc2=scale * inp.lc2,
                            tail_lu=scale * inp.tail_lu,
                            tail_lc2=scale * inp.tail_lc2)
            res = siso_decode(inp, config_for(MaxStarMode.MAX_LOG))
            want = exhaustive_llrs(inp.lu, inp.lc2, inp.tail_lu, inp.tail_lc2,
                                   best_sequence=True)
            assert np.array_equal(res.llr_out, want)

    def test_extrinsic_split(self):
        rng = np.random.default_rng(13)
        inp = random_siso_input(rng, 16)
        res = siso_decode(inp, config_for(MaxStarMode.LOG_MAP))
        np.testing.assert_array_equal(res.extrinsic, res.llr_out - inp.lu)

    def test_max_log_scaling_invariance(self):
        rng = np.random.default_rng(14)
        inp = random_siso_input(rng, 32)
        res = siso_decode(inp, config_for(MaxStarMode.MAX_LOG))
        scaled = SisoInput(lu=3.7 * inp.lu, lc2=3.7 * inp.lc2,
                           tail_lu=3.7 * inp.tail_lu, tail_lc2=3.7 * inp.tail_lc2)
        res_s = siso_decode(scaled, config_for(MaxStarMode.MAX_LOG))
        np.testing.assert_allclose(res_s.llr_out, 3.7 * res.llr_out, rtol=1e-12)
        assert np.array_equal(res_s.llr_out < 0, res.llr_out < 0)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_normalization_neutrality(self, mode):
        # the always-normalized decoder against the oracle's unnormalized
        # one-window decode
        rng = np.random.default_rng(15)
        inp = random_siso_input(rng, 48, dyadic_grid=True)
        res = siso_decode(inp, config_for(mode))
        want = window_reference_llrs(
            inp.lu.tolist(), inp.lc2.tolist(), inp.tail_lu, inp.tail_lc2,
            mode.value, inp.n, 0, False, CONSTANT_C, CONSTANT_T, LINEAR_A, LINEAR_T)
        if mode in (MaxStarMode.MAX_LOG, MaxStarMode.CONSTANT_LOG):
            assert np.array_equal(res.llr_out, want)
        else:
            np.testing.assert_allclose(res.llr_out, want, atol=1e-6)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(16)
        n, b = 20, 5
        lu, lc2 = rng.normal(0, 3, (2, b, n))
        tlu, tlc2 = rng.normal(0, 3, (2, b, 3))
        batch = siso_decode(SisoInput(lu=lu, lc2=lc2, tail_lu=tlu, tail_lc2=tlc2),
                            config_for(MaxStarMode.LOG_MAP))
        for i in range(b):
            one = siso_decode(SisoInput(lu=lu[i], lc2=lc2[i], tail_lu=tlu[i],
                                        tail_lc2=tlc2[i]),
                              config_for(MaxStarMode.LOG_MAP))
            np.testing.assert_allclose(batch.llr_out[i], one.llr_out, atol=1e-12)
        assert batch.ops.llr_reduces == b * 2 * n

    def test_windowed_equals_full_when_acquisition_reaches_tail(self):
        # acquisition spanning the rest of the block makes every window's
        # backward boundary exact, so windowed output is bit-identical
        rng = np.random.default_rng(17)
        inp = random_siso_input(rng, 64, dyadic_grid=True)
        full = siso_decode(inp, config_for(MaxStarMode.MAX_LOG))
        windowed = siso_decode(inp, config_for(MaxStarMode.MAX_LOG,
                                               window_len=16, acquisition_len=64))
        assert np.array_equal(full.llr_out, windowed.llr_out)

    def test_windowed_close_to_full_with_short_acquisition(self):
        rng = np.random.default_rng(18)
        inp = random_siso_input(rng, 128)
        full = siso_decode(inp, config_for(MaxStarMode.LOG_MAP))
        windowed = siso_decode(inp, config_for(MaxStarMode.LOG_MAP,
                                               window_len=32, acquisition_len=32))
        # same hard decisions; soft values differ only near window seams
        assert np.array_equal(full.llr_out < 0, windowed.llr_out < 0)

    def test_op_counts_single_window(self):
        rng = np.random.default_rng(19)
        n = 40
        inp = random_siso_input(rng, n)
        for mode in ALL_MODES:
            ops = siso_decode(inp, config_for(mode)).ops
            assert ops.llr_reduces == 2 * n
            assert ops.max_star_pairs == 16 * n
            assert ops.muls == (16 * n + 14 * n if mode is MaxStarMode.LINEAR_LOG else 0)

    def test_op_counts_windowed(self):
        rng = np.random.default_rng(20)
        n, w, acq = 64, 16, 8
        inp = random_siso_input(rng, n)
        ops = siso_decode(inp, config_for(MaxStarMode.MAX_LOG, window_len=w,
                                          acquisition_len=acq)).ops
        # three interior windows acquire 8 stages each; the last is exact
        assert ops.max_star_pairs == 16 * n + 8 * 3 * acq
        assert ops.llr_reduces == 2 * n

    def test_deterministic_op_counts(self):
        rng = np.random.default_rng(21)
        cfg = config_for(MaxStarMode.LOG_MAP)
        a = siso_decode(random_siso_input(rng, 56), cfg).ops
        b = siso_decode(random_siso_input(rng, 56), cfg).ops
        assert a == b

    def test_metric_storage_is_seven_vectors(self):
        rng = np.random.default_rng(22)
        n = 96
        inp = random_siso_input(rng, n)
        with track_metric_allocations() as log:
            siso_decode(inp, config_for(MaxStarMode.MAX_LOG))
        assert len(log) == 1
        assert log[0].shape == (n, 7)
        assert log[0].nbytes == 8 * 7 * n

    def test_peak_memory_is_the_store_the_table_and_the_llrs(self):
        # A call peaks in its loops at the forward store (7 values per
        # stage and block, stages rounded up to span, whole windows) and
        # the branch-metric table (2 per stage), with the halved inputs in
        # the store's buffer and the LLRs in the table's slabs, plus one
        # block-sized array for the per-stage registers.  After the loops
        # the store goes, the LLRs are copied out beside the table, and
        # the table goes before the extrinsics are formed.  Window 100
        # does not divide n: its padding stages cost store and table only.
        n, blocks = 1024, 32
        lu, lc2 = np.random.default_rng(29).normal(0, 3, (2, blocks, n))
        inp = SisoInput(lu=lu, lc2=lc2, tail_lu=lu[:, :3], tail_lc2=lc2[:, :3])
        for window_len, span in ((None, n), (100, 1100)):
            cfg = config_for(MaxStarMode.LOG_MAP, window_len=window_len)
            siso_decode(inp, cfg)
            tracemalloc.start()
            try:
                siso_decode(inp, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= ((7 + 2) * span + n) * 8 * blocks

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            SisoInput(np.zeros(8), np.zeros(9), *ZERO_TAIL)
        with pytest.raises(ValueError, match="finite"):
            SisoInput(np.array([np.inf, 0.0]), np.zeros(2), *ZERO_TAIL)
        with pytest.raises(ValueError, match="tail"):
            SisoInput(np.zeros(8), np.zeros(8), np.zeros(4), np.zeros(4))

    @pytest.mark.parametrize("bad", [1e260, -1e260, np.inf, np.nan])
    def test_rejects_non_finite_or_huge_llrs(self, bad):
        # beyond 1e250 a metric could approach the unreachable-state
        # sentinel; NaN and inf are no LLRs at all
        for stream in ("lu", "lc2", "tail_lu", "tail_lc2"):
            streams = dict(lu=np.zeros(4), lc2=np.zeros(4),
                           tail_lu=np.zeros(3), tail_lc2=np.zeros(3))
            streams[stream][1] = bad
            with pytest.raises(ValueError, match="finite"):
                SisoInput(**streams)

    def test_accepts_llrs_at_the_bound(self):
        inp = SisoInput(np.array([1e250, -1e250]), np.zeros(2), *ZERO_TAIL)
        assert np.isfinite(siso_decode(inp, config_for(MaxStarMode.MAX_LOG)).llr_out).all()

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="stage"):
            SisoInput(np.zeros((2, 0)), np.zeros((2, 0)), np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="stage"):
            SisoInput(np.zeros(()), np.zeros(()), *ZERO_TAIL)

    def test_tail_needs_both_halves(self):
        # a tail is required: a missing half is no numbers, not a zero tail
        with pytest.raises(TypeError, match="real numbers"):
            SisoInput(np.zeros(8), np.zeros(8), None, np.ones(3))
        with pytest.raises(TypeError, match="real numbers"):
            SisoInput(np.zeros(8), np.zeros(8), np.ones(3), None)

    @pytest.mark.parametrize("batch", [(), (3,), (2, 5)])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_zero_tail_boundary_is_uniform(self, mode, batch):
        # what lets every block carry a tail: three zero-metric steps from
        # state 0 reach every state by one path, and the sentinel zeroes
        # every correction, so each state ends at +0.0, the uniform start
        zeros = np.zeros(batch + (3,))
        beta = siso._tail_boundary(SisoInput(np.zeros(batch + (5,)), np.zeros(batch + (5,)),
                                             zeros, zeros), mode)
        assert beta.tobytes() == np.zeros((8, int(np.prod(batch)))).tobytes()
        assert not np.signbit(beta).any()

    def test_lanes_step_together(self, monkeypatch):
        # every lane advances in the same stage steps and folds: one
        # call per step whatever the number of windows
        calls = {"max_star": 0, "max_star_reduce": 0}

        def counted(name):
            fn = getattr(siso, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(siso, name, counted(name))
        n, w, acq = 64, 16, 8
        inp = random_siso_input(np.random.default_rng(23), n)
        siso_decode(inp, config_for(MaxStarMode.LINEAR_LOG, window_len=w,
                                    acquisition_len=acq))
        assert calls["max_star_reduce"] == 2 * w
        # forward n, window w, acquisition acq, tail 3
        assert calls["max_star"] == n + w + acq + 3

    def test_stage_times_are_recorded_per_call(self):
        inp = random_siso_input(np.random.default_rng(27), 40)
        cfg = config_for(MaxStarMode.MAX_LOG, window_len=16, acquisition_len=8)
        with track_stage_times() as log:
            siso_decode(inp, cfg)
            siso_decode(inp, cfg)
        siso_decode(inp, cfg)   # outside the context: not recorded
        assert len(log) == 2
        for times in log:
            spent = [times.forward_s, times.acquisition_s, times.backward_llr_s]
            assert all(np.isfinite(spent)) and min(spent) >= 0 and sum(spent) > 0

    def test_padding_stages_are_reported(self):
        # 40 stages in 16-stage windows: three lanes span 48 stages
        inp = random_siso_input(np.random.default_rng(24), 40)
        with track_metric_allocations() as log:
            res = siso_decode(inp, config_for(MaxStarMode.MAX_LOG, window_len=16))
        assert log[0].shape == (48, 7)
        assert res.llr_out.shape == (40,)

    def test_metric_store_is_stage_major(self):
        # slabs first, then the batch axes: one contiguous slab per step
        rng = np.random.default_rng(25)
        lu, lc2 = rng.normal(0, 3, (2, 2, 3, 40))
        with track_metric_allocations() as log:
            res = siso_decode(SisoInput(lu, lc2, np.zeros((2, 3, 3)), np.zeros((2, 3, 3))),
                              config_for(MaxStarMode.MAX_LOG, window_len=16))
        assert len(log) == 1
        assert log[0].shape == (48, 7, 2, 3)
        assert log[0].dtype == np.float64
        assert log[0].flags.c_contiguous
        # slab 0 is stage 0: states 1..7 of every block are unreachable
        assert (log[0][0] == METRIC_NEG_INF).all()
        assert res.llr_out.shape == (2, 3, 40)


@st.composite
def dyadic_siso_inputs(draw, batch=(), max_n=24):
    """SisoInput of 1..max_n stages with LLRs on the 2**-6 grid and a
    drawn or an all-zero tail."""
    n = draw(st.integers(1, max_n))

    def stream(length):
        shape = batch + (length,)
        size = int(np.prod(shape))
        ints = draw(st.lists(st.integers(-1024, 1024), min_size=size, max_size=size))
        return np.array(ints, dtype=np.float64).reshape(shape) / 64.0

    lu, lc2 = stream(n), stream(n)
    if not draw(st.booleans()):
        return SisoInput(lu, lc2, np.zeros(batch + (3,)), np.zeros(batch + (3,)))
    return SisoInput(lu, lc2, stream(3), stream(3))


class TestStageStepProperties:
    """Schedules that must reproduce the plain decode bit for bit, for
    every kernel: they run the same stage steps on the same values."""

    @settings(max_examples=40, deadline=None)
    @given(inp=dyadic_siso_inputs(), mode=st.sampled_from(ALL_MODES),
           data=st.data())
    def test_windowed_equals_full_when_acquisition_covers_the_block(
            self, inp, mode, data):
        window = data.draw(st.integers(1, inp.n))
        acq = data.draw(st.integers(inp.n, inp.n + 4))
        full = siso_decode(inp, config_for(mode))
        windowed = siso_decode(inp, config_for(mode, window_len=window,
                                               acquisition_len=acq))
        assert windowed.llr_out.tobytes() == full.llr_out.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(inp=dyadic_siso_inputs(batch=(3,)), mode=st.sampled_from(ALL_MODES),
           window=st.none() | st.integers(1, 8), acq=st.integers(0, 8))
    def test_batch_equals_each_row_decoded_alone(self, inp, mode, window, acq):
        cfg = config_for(mode, window_len=window, acquisition_len=acq)
        batch = siso_decode(inp, cfg)
        for i in range(3):
            one = siso_decode(row(inp, i), cfg)
            assert one.llr_out.tobytes() == batch.llr_out[i].tobytes()
            assert one.extrinsic.tobytes() == batch.extrinsic[i].tobytes()


@st.composite
def windowed_case(draw, batch=(2,)):
    """(window_len, acquisition_len, input of the given batch shape) with
    n not a multiple of window_len, an acquisition of 0, shorter than
    a window, or longer (spanning several lanes), and a drawn or an
    all-zero tail."""
    window = draw(st.integers(2, 8))
    n = window * draw(st.integers(0, 4)) + draw(st.integers(1, window - 1))
    acq = draw(st.one_of(st.just(0), st.integers(1, window - 1),
                         st.integers(window + 1, 3 * window)))

    def stream(length):
        shape = batch + (length,)
        size = int(np.prod(shape))
        ints = draw(st.lists(st.integers(-1024, 1024), min_size=size, max_size=size))
        return np.array(ints, dtype=np.float64).reshape(shape) / 64.0

    lu, lc2 = stream(n), stream(n)
    zero = draw(st.booleans())
    tail = [np.zeros(batch + (3,)) if zero else stream(3) for _ in range(2)]
    return window, acq, SisoInput(lu, lc2, *tail)


class TestStageMajorLayout:
    """The decoder transposes a batch into stage-major slabs and back;
    every block must come out where it went in, with the bits it has
    when decoded alone."""

    @settings(max_examples=30, deadline=None)
    @given(case=windowed_case(batch=(2, 3)), windowed=st.booleans(),
           mode=st.sampled_from(ALL_MODES))
    def test_2d_batch_equals_each_block_decoded_alone(self, case, windowed, mode):
        window, acq, inp = case
        cfg = config_for(mode, window_len=window if windowed else None,
                         acquisition_len=acq)
        batch = siso_decode(inp, cfg)
        assert batch.llr_out.shape == batch.extrinsic.shape == (2, 3, inp.n)
        for i in np.ndindex(2, 3):
            one = siso_decode(row(inp, i), cfg)
            assert one.llr_out.tobytes() == batch.llr_out[i].tobytes()
            assert one.extrinsic.tobytes() == batch.extrinsic[i].tobytes()


class TestNoNegativeZeroMetric:
    """The u-major butterfly adds g on one edge and subtracts it on the
    other, which is order-free only while no metric is -0.0 (see the
    siso module docstring).  6:2-quantized LLRs hold -0.0 entries, so
    they must not reach the forward store or the tail boundary."""

    @pytest.mark.parametrize("window_len", [None, 16])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_quantized_inputs_give_no_negative_zero(self, mode, window_len):
        n, blocks = 100, 4
        rng = np.random.default_rng(29)
        inp = SisoInput(*(quantize_llrs(rng.normal(0, 1, (blocks, k)), 6, 2)
                          for k in (n, n, 3, 3)))
        streams = np.concatenate([inp.lu, inp.lc2, inp.tail_lu, inp.tail_lc2], axis=-1)
        assert np.signbit(streams[streams == 0]).sum() > 20
        with track_metric_allocations() as log:
            siso_decode(inp, config_for(mode, window_len=window_len, acquisition_len=8))
        # store row j*lanes + w is stage w*L + j; rows past the block are padding
        L = n if window_len is None else window_len
        lanes = -(-n // L)
        store = log[0].reshape(L, lanes, 7, blocks)
        stages = np.arange(L)[:, None] + L * np.arange(lanes) < n
        alpha = store[stages]
        assert alpha.size == 7 * n * blocks and not np.signbit(alpha[alpha == 0]).any()
        beta = siso._tail_boundary(inp, mode)
        assert not np.signbit(beta[beta == 0]).any()


class TestWindowReference:
    """The lockstep lanes against a decoder that runs one window after
    another (tests/oracles.py), bit for bit on dyadic inputs.  Log-map
    is held to 1e-9: the oracle's max* is libm's scalar exp and log1p,
    the decoder's numpy's vectorised ones, and the two round apart."""

    @settings(max_examples=60, deadline=None)
    @given(case=windowed_case(), mode=st.sampled_from(ALL_MODES))
    def test_lanes_equal_window_by_window_reference(self, case, mode):
        window, acq, inp = case
        res = siso_decode(inp, config_for(mode, window_len=window,
                                          acquisition_len=acq))
        for i in range(2):
            want = window_reference_llrs(
                inp.lu[i].tolist(), inp.lc2[i].tolist(), inp.tail_lu[i], inp.tail_lc2[i],
                mode.value,
                window, acq, True,
                CONSTANT_C, CONSTANT_T, LINEAR_A, LINEAR_T)
            if mode is MaxStarMode.LOG_MAP:
                np.testing.assert_allclose(res.llr_out[i], want, rtol=0, atol=1e-9)
                np.testing.assert_allclose(res.extrinsic[i], want - inp.lu[i],
                                           rtol=0, atol=1e-9)
            else:
                assert res.llr_out[i].tobytes() == want.tobytes()
                assert res.extrinsic[i].tobytes() == (want - inp.lu[i]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(inp=st.sampled_from([(), (2,)]).flatmap(
               lambda batch: dyadic_siso_inputs(batch=batch, max_n=59)),
           mode=st.sampled_from(ALL_MODES))
    def test_unwindowed_decode_equals_one_window_reference(self, inp, mode):
        # the one-lane path for every n the pinned cases reach, not only
        # the short blocks windowed_case leaves unsplit
        res = siso_decode(inp, config_for(mode))
        for i in np.ndindex(inp.batch_shape):
            want = window_reference_llrs(
                inp.lu[i].tolist(), inp.lc2[i].tolist(), inp.tail_lu[i], inp.tail_lc2[i],
                mode.value, inp.n, 0, True, CONSTANT_C, CONSTANT_T, LINEAR_A, LINEAR_T)
            if mode is MaxStarMode.LOG_MAP:
                np.testing.assert_allclose(res.llr_out[i], want, rtol=0, atol=1e-9)
            else:
                assert res.llr_out[i].tobytes() == want.tobytes()


BATCH_SHAPES = [(), (1,), (3,), (2, 3)]


def pinned_cases():
    """The fixed siso_decode cases of TestPinnedOutputs: (input, window,
    acquisition) triples.  Every n in 1..59 and each batch shape comes
    up; about 30% of the cases run without windows, 30% acquire over 0
    stages and 20% have an all-zero tail.  The LLRs cycle through a
    2**-6 grid, Gaussian values and the 6:2 quantizer's grid, whose
    rounding gives exact +0.0 and -0.0 entries (and lu == lc2 stages)."""
    rng = np.random.default_rng(1501)
    for i in range(420):
        n = 1 + 7 * i % 59
        batch = BATCH_SHAPES[i % 4]
        grid = i % 3

        def stream(length):
            x = rng.normal(0, 4, batch + (length,))
            if grid == 0:
                return np.round(x * 64) / 64
            return x if grid == 1 else quantize_llrs(x / 2, 6, 2)

        lu, lc2 = stream(n), stream(n)
        # zero tails draw nothing from rng, so the cases stay those pinned
        zero = np.zeros(batch + (3,))
        tail = (zero, zero) if rng.random() < 0.2 else (stream(3), stream(3))
        window = None if rng.random() < 0.3 else int(rng.integers(1, n + 1))
        acq = 0 if rng.random() < 0.3 else int(rng.integers(1, n + 5))
        yield SisoInput(lu, lc2, *tail), window, acq


def outputs_digest(mode):
    """sha256 of every pinned case's llr_out and extrinsic bytes."""
    digest = hashlib.sha256()
    for inp, window, acq in pinned_cases():
        res = siso_decode(inp, config_for(mode, window_len=window, acquisition_len=acq))
        digest.update(res.llr_out.tobytes())
        digest.update(res.extrinsic.tobytes())
    return digest.hexdigest()


class TestPinnedOutputs:
    """Byte-identity regression pins: a schedule or layout change must
    not move a single output bit.  The kernels pinned here use only IEEE
    add, subtract, max, compare and multiply, so their bytes do not
    depend on the CPU.  Log-map is not pinned: numpy's vectorised exp and
    log1p round differently across CPUs (TestWindowReference holds it to
    the libm oracle within 1e-9)."""

    @pytest.mark.parametrize("mode, want", [
        (MaxStarMode.MAX_LOG,
         "1c4cc0eeab9c146cc47a48dd838981fb2e51843255bdffb75aff0bd0e0e8c995"),
        (MaxStarMode.CONSTANT_LOG,
         "3b7a09d21d47a738fdc6a3d883011bc4ad300e5784866bc8de2b388530d3b73b"),
        (MaxStarMode.LINEAR_LOG,
         "7a2146b3b9a96c2f24bd93fee4e43bcdd007d1ec550a5e1259e70ec2e33f5b84"),
    ], ids=["max-log", "constant", "linear"])
    def test_outputs_match_pinned_digest(self, mode, want):
        assert outputs_digest(mode) == want

    def test_cases_cover_the_stated_shapes(self):
        cases = list(pinned_cases())
        assert len(cases) == 420
        assert {inp.n for inp, _, _ in cases} == set(range(1, 60))
        assert {inp.batch_shape for inp, _, _ in cases} == set(BATCH_SHAPES)
        # zero tails and drawn tails both occur
        assert {inp.tail_lu.any() for inp, _, _ in cases} == {True, False}
        assert any(w is None for _, w, _ in cases)
        # windows that split the block, with and without acquisition
        assert {acq == 0 for inp, w, acq in cases
                if w is not None and w < inp.n} == {True, False}
        lu = np.concatenate([inp.lu.ravel() for inp, _, _ in cases])
        zeros = lu[lu == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()


class TestQuantize:
    def test_zero(self):
        assert quantize_llrs(0.0, 6, 2) == 0.0

    def test_round_to_grid(self):
        assert quantize_llrs(1.3, 6, 2) == 1.25

    def test_saturation(self):
        assert quantize_llrs(100.0, 6, 2) == 7.75
        assert quantize_llrs(-100.0, 6, 2) == -8.0
        with np.errstate(all="raise"):   # 1e308 / step overflowed before the clip
            assert quantize_llrs(1e308, 6, 2) == 7.75
            assert quantize_llrs(-1e308, 6, 2) == -8.0

    def test_vector(self):
        out = quantize_llrs(np.array([0.1, -0.1, 3.9]), 6, 2)
        np.testing.assert_array_equal(out, [0.0, -0.0, 4.0])
        # every valid (bits, frac_bits) pair: byte for byte the clip,
        # divide, round and multiply, in a new array, x untouched
        fine = np.arange(-2 ** 17, 2 ** 17 + 1) / 2 ** 16   # half steps of every grid in [-2, 2]
        wide = np.arange(-2 ** 15, 2 ** 15) + 0.5            # ties up to the widest grid's ends
        x = np.concatenate([fine, wide, [0.0, -0.0, 1e308, -1e308, np.nan, np.inf, -np.inf]])
        before = x.tobytes()
        pairs = [(bits, frac) for bits in range(2, 17) for frac in range(bits)]
        for bits, frac in pairs:
            step = 2.0 ** -frac
            lo, hi = -(2 ** (bits - 1)) * step, (2 ** (bits - 1) - 1) * step
            out = quantize_llrs(x, bits, frac)
            assert out.tobytes() == (np.round(np.clip(x, lo, hi) / step) * step).tobytes()
            assert not np.shares_memory(out, x)
            assert x.tobytes() == before
        assert len(pairs) == 135

    def test_validation(self):
        with pytest.raises(ValueError):
            quantize_llrs(0.0, 1, 0)
        with pytest.raises(ValueError):
            quantize_llrs(0.0, 17, 2)
        with pytest.raises(ValueError):
            quantize_llrs(0.0, 6, 6)
        with pytest.raises(TypeError, match="^bits must be an integer"):
            quantize_llrs(0.0, 6.5, 2)
        with pytest.raises(TypeError, match="^frac_bits must be an integer"):
            quantize_llrs(0.0, 6, 2.5)
