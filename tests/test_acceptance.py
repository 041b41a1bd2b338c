"""Acceptance suite: one test per release criterion, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines; the whole suite takes a few minutes (the Monte-Carlo criteria
decode a million information bits or more per measurement).

C6a and C6b measure the correction term of the program's own max* kernel,
max_star(d, 0) - d, against the exact ln(1 + e^-d).  C6b's criterion for
the clipped-linear kernel max(0, a*(d - t_lin)) is: worst-case error
within 10% of the family's minimax, found by a search inside the test,
with the worst case at the clip point d = t_lin.  An earlier fixed bound
of 0.05 was dropped because it lies below that minimax (~0.0716): no
choice of (a, t_lin) can meet it, so it failed for every kernel, the
shipped one and a broken one alike.
"""

import dataclasses
import math

import numpy as np
import pytest

from lteturbo.channel import ChannelConfig, bpsk_modulate, llr_demap
from lteturbo.cli import main as cli_main
from lteturbo.maxstar import (CONSTANT_C, CONSTANT_T, LINEAR_A, LINEAR_T,
                              MaxStarMode, max_star)
from lteturbo.qpp import (block_sizes, inverse_permutation, params_for_block_size,
                          permutation, qpp_index)
from lteturbo.siso import SisoInput, siso_decode, track_metric_allocations
from lteturbo.trellis import rsc_encode
from lteturbo.turbo import DecoderConfig, run_monte_carlo, turbo_decode

from oracles import exhaustive_llrs, turbo_reference_decode

SEED = 20250810


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _noisy_constituent_input(rng, n, sigma2, dyadic_grid=False):
    """One noise realization of a terminated constituent code block."""
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    tx = np.concatenate([bits, *rsc_encode(bits)])
    symbols = bpsk_modulate(tx)
    llrs = llr_demap(symbols + np.sqrt(sigma2) * rng.standard_normal(symbols.shape),
                     sigma2)
    if dyadic_grid:
        # snap to multiples of 1/64 so that every sum in both the decoder
        # and the oracle is exact in float64; "exactly equal" is then a
        # meaningful assertion about the algorithm, not about rounding
        llrs = np.round(llrs * 64) / 64
    return (bits,
            SisoInput(lu=llrs[:n], lc2=llrs[n:2 * n],
                      tail_lu=llrs[2 * n:2 * n + 3], tail_lc2=llrs[2 * n + 3:]))


def test_c1_oracle_equivalence():
    """Component decoder vs exhaustive enumeration of all 2^8 words."""
    n = 8
    sigma2 = 1.0
    rng = np.random.default_rng(SEED)
    worst_app = 0.0
    for _ in range(20):
        _, inp = _noisy_constituent_input(rng, n, sigma2)
        res = siso_decode(inp, DecoderConfig(mode=MaxStarMode.LOG_MAP, iterations=1))
        want = exhaustive_llrs(inp.lu, inp.lc2, inp.tail_lu, inp.tail_lc2)
        worst_app = max(worst_app, float(np.abs(res.llr_out - want).max()))
    assert worst_app <= 1e-6

    for _ in range(20):
        _, inp = _noisy_constituent_input(rng, n, sigma2, dyadic_grid=True)
        res = siso_decode(inp, DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=1))
        want = exhaustive_llrs(inp.lu, inp.lc2, inp.tail_lu, inp.tail_lc2,
                               best_sequence=True)
        assert np.array_equal(res.llr_out, want)
    report("C1 oracle equivalence",
           True, f"log-map within {worst_app:.2e} of exhaustive a-posteriori; "
           "max-log bit-exact vs best-sequence, 20 realizations each")


def test_c2_qpp_validity():
    """Whole parameter table: bijective, f1 odd, f2 even; spot values."""
    sizes = block_sizes()
    assert len(sizes) == 188
    for n in sizes:
        p = params_for_block_size(n)  # __post_init__ checks bijectivity
        assert p.f1 % 2 == 1 and p.f2 % 2 == 0
    assert qpp_index(params_for_block_size(40), 1) == 13
    assert qpp_index(params_for_block_size(6144), 1) == 743
    report("C2 QPP validity", True,
           "188/188 sizes bijective with f1 odd, f2 even; f(1)=13 at n=40, "
           "f(1)=743 at n=6144")


def test_c2b_qpp_contention_free():
    """Contention-free memory access, the paper's reason for the QPP: for
    every window count P dividing n, stage j of the P windows of length
    M = n/P lies in P distinct windows after interleaving, and after
    deinterleaving, so P SISO units stepping together never read one
    window's memory twice in a step (Takeshita, IEEE Trans. IT 2006)."""
    splits = 0
    for n in block_sizes():
        qpp = params_for_block_size(n)
        perms = (permutation(qpp), inverse_permutation(qpp))
        for P in (p for p in range(2, n + 1) if n % p == 0):   # one window cannot contend
            M = n // P
            for perm in perms:
                windows = np.sort(perm.reshape(P, M) // M, axis=0)   # column j: stage j
                assert (np.diff(windows, axis=0) > 0).all(), (n, P)
            splits += 1
    assert splits == 3194
    report("C2b QPP contention-free", True,
           f"{splits} (n, P) splits of the 188 sizes, interleaver and deinterleaver")


def test_c3_op_count_reproduction():
    """Output-reduction count law and decode-time ordering of the kernels."""
    qpp = params_for_block_size(6144)
    config = DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=1, qpp=qpp)
    mc = run_monte_carlo(config, 4.0, 1, SEED)
    per_iteration = mc.ops.llr_reduces
    assert per_iteration == 4 * 6144 == 24576
    reference_count = 24567  # reduction-unit invocations of the fixed-point design
    assert abs(per_iteration - reference_count) / reference_count < 1e-3
    for n in (40, 512):
        cfg = DecoderConfig(mode=MaxStarMode.LOG_MAP, iterations=3,
                            qpp=params_for_block_size(n))
        assert run_monte_carlo(cfg, 4.0, 1, SEED).ops.llr_reduces == 4 * n * 3

    t_max = run_monte_carlo(DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=8,
                                          qpp=qpp), 1.0, 2, SEED).decode_s
    t_log = run_monte_carlo(DecoderConfig(mode=MaxStarMode.LOG_MAP, iterations=8,
                                          qpp=qpp), 1.0, 2, SEED).decode_s
    assert t_max < t_log
    report("C3 op-count reproduction", True,
           f"llr_reduces/iteration = 24576 at n=6144 (ref 24567, "
           f"{abs(24576 - 24567) / 24567:.2%} off); wall clock max-log "
           f"{t_max:.2f}s < log-map {t_log:.2f}s at n=6144, 8 iterations")


def test_c4_normalization_neutrality():
    """Per-stage state-0 subtraction changes nothing but storage.

    The library always normalizes; the unnormalized decode it is held
    to is the scalar turbo loop of tests/oracles.py, which shares no
    code with the library.
    """
    n = 64
    qpp = params_for_block_size(n)
    sigma2 = ChannelConfig.for_block_size(n, 1.0).noise_variance
    rng = np.random.default_rng(SEED)
    bits = rng.integers(0, 2, (100, n), dtype=np.uint8)
    from lteturbo.channel import split_llrs, serialize_codeword
    from lteturbo.trellis import turbo_encode
    tx = bpsk_modulate(serialize_codeword(turbo_encode(bits, qpp)))
    llrs = llr_demap(tx + math.sqrt(sigma2) * rng.standard_normal(tx.shape), sigma2)
    ch = split_llrs(np.round(llrs * 64) / 64, n)  # dyadic grid, see C1

    streams = [getattr(ch, name) for name in (
        "lu", "parity1", "parity2", "tail1_info", "tail1_parity",
        "tail2_info", "tail2_parity")]
    for mode in MaxStarMode:
        config = DecoderConfig(mode=mode, iterations=2, qpp=qpp)
        res = turbo_decode(ch, config)
        for b in range(len(bits)):
            want_llrs, want_bits = turbo_reference_decode(
                *(x[b].tolist() for x in streams), qpp.f1, qpp.f2, 2,
                mode.value, False, CONSTANT_C, CONSTANT_T, LINEAR_A, LINEAR_T)
            assert np.array_equal(res.hard_bits[b], want_bits)
            if mode is MaxStarMode.MAX_LOG:
                assert np.array_equal(res.final_llrs[b], want_llrs)
            else:
                np.testing.assert_allclose(res.final_llrs[b], want_llrs, atol=1e-6)

    big = 6144
    rng = np.random.default_rng(SEED + 1)
    inp = SisoInput(lu=rng.normal(0, 2, big), lc2=rng.normal(0, 2, big),
                    tail_lu=rng.normal(0, 2, 3), tail_lc2=rng.normal(0, 2, 3))
    with track_metric_allocations() as log:
        siso_decode(inp, DecoderConfig(mode=MaxStarMode.MAX_LOG, iterations=1))
    assert len(log) == 1
    assert log[0].shape == (big, 7)
    assert log[0].size == 7 * big == 43008
    report("C4 normalization neutrality", True,
           "identical decisions/LLRs to an unnormalized scalar reference "
           "(bit-exact for max-log, <=1e-6 otherwise) on 100 blocks; "
           f"stored metrics exactly 7*n = {7 * big} values at n=6144")


# C5's and C6c's waterfall decoder
WATERFALL = DecoderConfig(mode=MaxStarMode.LOG_MAP, iterations=8, qpp=params_for_block_size(1024))


@pytest.fixture(scope="module")
def log_map_at_1db():
    """The WATERFALL run at 1 dB that C5 and C6c share."""
    return run_monte_carlo(WATERFALL, 1.0, 977, SEED)   # 1000448 information bits


@pytest.mark.slow
def test_c5_iteration_gain(log_map_at_1db):
    """Waterfall-region gains: more iterations and more SNR both help.

    BER after 1 and after 8 iterations come from two fixed-schedule runs
    on the same blocks.
    """
    eight = log_map_at_1db
    one = run_monte_carlo(dataclasses.replace(WATERFALL, iterations=1), 1.0, eight.blocks, SEED)
    assert one.info_bits == eight.info_bits >= 10**6
    assert eight.ber < one.ber / 10

    sweep = [run_monte_carlo(WATERFALL, snr, 196, SEED).ber
             for snr in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert all(a >= b for a, b in zip(sweep, sweep[1:]))
    report("C5 iteration gain", True,
           f"BER(1 iter) {one.ber:.2e} -> BER(8 iters) {eight.ber:.2e} "
           f"({one.ber / eight.ber:.0f}x) at 1 dB, n=1024, 1e6 bits, "
           f"two fixed-schedule runs; "
           f"0..2 dB sweep non-increasing {['%.1e' % b for b in sweep]}")


def _correction_error_grid(mode):
    """Grid d in [0, 10] and |max_star(d, 0) - d - ln(1 + e^-d)| on it."""
    d = np.linspace(0.0, 10.0, 200001)
    err = np.abs(max_star(d, 0.0, mode) - d - np.log1p(np.exp(-d)))
    return d, err


def _linear_family_minimax():
    """Least worst-case error of max(0, a*(d - t)) vs ln(1 + e^-d), d in [0, 10].

    A 41 x 41 grid search over (a, t) in [-1, -0.01] x [0.1, 6], then four
    zoom rounds onto the best cell and its neighbours.  It runs on a 0.01
    grid in d, which keeps it well under a second and reads the minimax
    about 4e-5 lower than the 200 001-point grid does, so a bound built on
    it errs strict.
    """
    d = np.linspace(0.0, 10.0, 1001)
    exact = np.log1p(np.exp(-d))
    a_lo, a_hi, t_lo, t_hi = -1.0, -0.01, 0.1, 6.0
    for _ in range(5):
        a = np.linspace(a_lo, a_hi, 41)
        t = np.linspace(t_lo, t_hi, 41)
        approx = np.maximum(0.0, a[:, None, None] * (d - t[None, :, None]))
        worst = np.abs(approx - exact).max(axis=-1)
        i, j = np.unravel_index(np.argmin(worst), worst.shape)
        da, dt = a[1] - a[0], t[1] - t[0]
        a_lo, a_hi, t_lo, t_hi = a[i] - da, a[i] + da, t[j] - dt, t[j] + dt
    return float(worst[i, j])


def test_c6_mode_fidelity_constant_correction_bound():
    err = float(_correction_error_grid(MaxStarMode.CONSTANT_LOG)[1].max())
    bound = max(CONSTANT_C, math.log(2))
    assert err <= bound
    report("C6a constant-mode correction bound", True,
           f"max |correction error| {err:.4f} <= max(C, ln 2) = {bound:.4f}")


def test_c6_mode_fidelity_linear_correction_bound():
    # No clipped-linear correction max(0, a*(d - t)) tracks ln(1 + e^-d)
    # better than the family's minimax, ~0.0716 on d in [0, 10] (three
    # error extrema: d=0, the slope-matching point and the clip point), so
    # a fixed bound such as 0.05 below it cannot be met by any kernel.
    # Instead the kernel must come within 10% of that minimax, and its
    # worst case must sit at the clip point, where the correction reaches
    # zero while ln(1 + e^-t_lin) does not.  A slope or a clip point a few
    # tenths off, or a missing clip, roughly doubles the ratio or worse.
    d, err = _correction_error_grid(MaxStarMode.LINEAR_LOG)
    worst = float(err.max())
    at = float(d[np.argmax(err)])
    minimax = _linear_family_minimax()
    ratio = worst / minimax
    at_clip = abs(at - LINEAR_T) <= d[1] - d[0]
    report("C6b linear-mode correction bound", ratio <= 1.10 and at_clip,
           f"max |correction error| {worst:.4f} at d={at:.4f}, "
           f"{ratio:.3f} x family minimax {minimax:.4f} (required <= 1.10, "
           f"at t_lin={LINEAR_T})")
    assert ratio <= 1.10
    assert at_clip


@pytest.mark.slow
def test_c6_mode_fidelity_ber_sandwich(log_map_at_1db):
    """Approximate kernels land between max-log and log-map at 1 dB."""
    ber, sigma = {}, {}
    for mode in MaxStarMode:
        if mode is WATERFALL.mode:
            mc = log_map_at_1db
        else:
            mc = run_monte_carlo(dataclasses.replace(WATERFALL, mode=mode),
                                 1.0, log_map_at_1db.blocks, SEED)
        assert mc.info_bits >= 10**6
        ber[mode] = mc.ber
        sigma[mode] = math.sqrt(mc.ber * (1 - mc.ber) / mc.info_bits)
    for mode in (MaxStarMode.CONSTANT_LOG, MaxStarMode.LINEAR_LOG):
        lower = ber[MaxStarMode.LOG_MAP] - 4 * (sigma[MaxStarMode.LOG_MAP] + sigma[mode])
        upper = ber[MaxStarMode.MAX_LOG] + 4 * (sigma[MaxStarMode.MAX_LOG] + sigma[mode])
        assert lower <= ber[mode] <= upper
    report("C6c mode BER sandwich", True,
           "1 dB, 1e6 bits: " + ", ".join(
               f"{m.value} {ber[m]:.2e}" for m in MaxStarMode)
           + "; constant/linear within 4-sigma of [log-map, max-log]")


def test_c7_cli_determinism(tmp_path):
    """`turbosim ber` output is byte-identical across runs and threads."""
    args = ["ber", "--n", "40", "--alg", "max-log", "--iters", "2",
            "--snr-db", "0:1:2", "--blocks", "600", "--seed", "11"]
    outputs = []
    for name, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        path = tmp_path / f"{name}.csv"
        assert cli_main(args + ["--threads", threads, "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    report("C7 CLI determinism", True,
           "1800-block sweep byte-identical across repeat runs and "
           "thread counts 1 vs 4")
