"""Iterative turbo decoding: two SISO passes per full iteration.

One full iteration runs the first constituent decoder on the systematic
and parity1 streams, interleaves its extrinsic output, runs the second
constituent decoder on the interleaved systematic and parity2 streams,
and deinterleaves that extrinsic back as the next a-priori input.  The
first iteration starts with zero a-priori.  After the configured number
of iterations (or earlier, under the optional hard-decision stop rule)
the decision statistic is

    final_llr = lu + extrinsic1 + deinterleave(extrinsic2)

and hard_bits[k] = 1 where final_llr[k] < 0 (positive LLR means bit 0).

All decode entry points accept a leading batch axis on the LLR arrays;
the Monte-Carlo helper below relies on it.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelConfig, ChannelLlrs, block_rng, bpsk_modulate, \
    llr_demap, serialize_codeword, split_llrs
from .maxstar import DEFAULT_CORRECTION, CorrectionParams, MaxStarMode
from .qpp import QppParams, inverse_permutation, permutation
from .siso import OpCounts, SisoInput, quantize_llrs, siso_decode
from .trellis import turbo_encode


@dataclass(frozen=True)
class DecoderConfig:
    """Everything the decoder needs to know about one configuration.

    qpp may be omitted for component-level (single SISO) use; the turbo
    entry points require it.  quantization, when set to (bits, frac_bits),
    applies saturating fixed-point rounding to the channel LLRs on entry
    and to each extrinsic stream as it is exchanged, approximating a
    fixed-point decoder's LLR memories.  window_len=None decodes each
    block as a single window, which is the exact-reference schedule.
    """
    mode: MaxStarMode = MaxStarMode.MAX_LOG
    iterations: int = 8
    qpp: QppParams | None = None
    correction: CorrectionParams = DEFAULT_CORRECTION
    window_len: int | None = None
    acquisition_len: int = 32
    quantization: tuple[int, int] | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("need at least one full iteration")
        if self.window_len is not None and self.window_len < 1:
            raise ValueError("window length must be >= 1")
        if self.acquisition_len < 0:
            raise ValueError("acquisition length must be >= 0")
        if self.quantization is not None:
            bits, frac = self.quantization
            quantize_llrs(0.0, bits, frac)  # validates the pair

    @property
    def n(self) -> int | None:
        return None if self.qpp is None else self.qpp.n

    def num_windows(self, n: int) -> int:
        if self.window_len is None:
            return 1
        return -(-n // self.window_len)


@dataclass
class DecodeResult:
    hard_bits: np.ndarray                 # (..., n) 0/1 decisions
    final_llrs: np.ndarray                # (..., n)
    ops: OpCounts
    half_iterations_run: int
    per_iteration_llrs: list | None = field(default=None, repr=False)


def _quantizer(config: DecoderConfig):
    if config.quantization is None:
        return lambda x: x
    bits, frac = config.quantization
    return lambda x: quantize_llrs(x, bits, frac)


def turbo_decode(ch: ChannelLlrs, config: DecoderConfig,
                 trace_iterations: bool = False, *,
                 normalize_metrics: bool = True,
                 stop_on_repeat: bool = False) -> DecodeResult:
    """Run up to config.iterations full iterations.

    With stop_on_repeat=True decoding stops after the first iteration
    whose hard decisions equal the previous iteration's (the hard-decision
    rule of Shao, Lin & Fossorier, IEEE TCOM 1999); half_iterations_run
    reports how many half-iterations ran.  With trace_iterations=True the
    result carries the combined LLR vector after every full iteration run
    (per_iteration_llrs[i] for iteration i+1).  normalize_metrics is the
    debug toggle of siso_decode, passed through so the two normalization
    settings can be compared end to end.
    """
    qpp = config.qpp
    if qpp is None:
        raise ValueError("turbo decoding needs DecoderConfig.qpp")
    if ch.n != qpp.n:
        raise ValueError(f"channel LLR length {ch.n} does not match "
                         f"interleaver block size {qpp.n}")
    quant = _quantizer(config)
    pi = permutation(qpp)
    ip = inverse_permutation(qpp)

    lu = quant(ch.lu)
    parity1 = quant(ch.parity1)
    parity2 = quant(ch.parity2)
    t1i, t1p = quant(ch.tail1_info), quant(ch.tail1_parity)
    t2i, t2p = quant(ch.tail2_info), quant(ch.tail2_parity)
    lu_perm = lu[..., pi]

    ops = OpCounts()
    trace = [] if trace_iterations else None
    apriori = np.zeros_like(lu)
    bits = None
    for iteration in range(1, config.iterations + 1):
        s1 = siso_decode(SisoInput(lu=lu + apriori, lc2=parity1,
                                   tail_lu=t1i, tail_lc2=t1p), config,
                         normalize_metrics=normalize_metrics)
        ext1 = quant(s1.extrinsic)
        s2 = siso_decode(SisoInput(lu=lu_perm + ext1[..., pi], lc2=parity2,
                                   tail_lu=t2i, tail_lc2=t2p), config,
                         normalize_metrics=normalize_metrics)
        ext2 = quant(s2.extrinsic)
        apriori = ext2[..., ip]
        ops += s1.ops + s2.ops
        combined = lu + ext1 + apriori
        if trace is not None:
            trace.append(combined)
        if stop_on_repeat:
            prev_bits, bits = bits, (combined < 0).astype(np.uint8)
            if prev_bits is not None and np.array_equal(bits, prev_bits):
                break
    # Hard decisions are built once here, not per iteration: an extra
    # per-iteration array raised the sweep's peak RSS by about 10%.
    return DecodeResult(
        hard_bits=(combined < 0).astype(np.uint8) if bits is None else bits,
        final_llrs=combined,
        ops=ops,
        half_iterations_run=2 * iteration,
        per_iteration_llrs=trace)


# ---------------------------------------------------------------------------
# Monte-Carlo engine.  Block b of a run is fully determined by (seed, b):
# its Philox stream provides the information bits and then the channel
# noise, so results do not depend on batching.

@dataclass
class McResult:
    """Error accumulators of a Monte-Carlo run (one SNR point)."""
    blocks: int = 0
    info_bits: int = 0
    bit_errors: int = 0
    block_errors: int = 0
    per_iteration_bit_errors: np.ndarray | None = None
    ops: OpCounts = field(default_factory=OpCounts)
    decode_s: float = 0.0     # wall time inside turbo_decode; not part of any CSV

    @property
    def ber(self) -> float:
        return self.bit_errors / self.info_bits if self.info_bits else 0.0

    @property
    def fer(self) -> float:
        return self.block_errors / self.blocks if self.blocks else 0.0


def _default_batch_size(n: int) -> int:
    # keep the batched forward-metric store around a few hundred MB at most
    return int(np.clip(2 ** 18 // n, 1, 512))


def run_monte_carlo(config: DecoderConfig, snr_db: float, num_blocks: int,
                    seed: int, *, block_offset: int = 0,
                    batch_size: int | None = None,
                    per_iteration: bool = False) -> McResult:
    """Simulate and decode num_blocks random blocks at one Eb/N0 point.

    Blocks are decoded in batches of batch_size (default: a size that
    bounds the batched forward-metric store).  block_offset shifts the
    absolute block indices, and hence the RNG streams, so a run can be
    split into parts without changing any result.  decode_s accumulates
    the wall time of the turbo_decode calls alone; generating and
    encoding the blocks and simulating the channel are not in it.
    """
    qpp = config.qpp
    if qpp is None:
        raise ValueError("Monte-Carlo runs need DecoderConfig.qpp")
    n = qpp.n
    sigma2 = ChannelConfig.for_block_size(n, snr_db).noise_variance
    batch = batch_size or _default_batch_size(n)
    total = McResult()
    if per_iteration:
        total.per_iteration_bit_errors = np.zeros(config.iterations, dtype=np.int64)

    for lo in range(0, num_blocks, batch):
        hi = min(lo + batch, num_blocks)
        b = hi - lo
        bits = np.empty((b, n), dtype=np.uint8)
        noise = np.empty((b, 3 * n + 12))
        for i, blk in enumerate(range(lo, hi)):
            rng = block_rng(seed, block_offset + blk)
            bits[i] = rng.integers(0, 2, n, dtype=np.uint8)
            noise[i] = rng.standard_normal(3 * n + 12)
        symbols = bpsk_modulate(serialize_codeword(turbo_encode(bits, qpp)))
        ch = split_llrs(llr_demap(symbols + np.sqrt(sigma2) * noise, sigma2), n)

        start = time.perf_counter()
        result = turbo_decode(ch, config, trace_iterations=per_iteration)
        total.decode_s += time.perf_counter() - start
        errors = result.hard_bits != bits
        total.blocks += b
        total.info_bits += b * n
        total.bit_errors += int(errors.sum())
        total.block_errors += int(errors.any(axis=-1).sum())
        total.ops += result.ops
        if per_iteration:
            for i, llrs in enumerate(result.per_iteration_llrs):
                total.per_iteration_bit_errors[i] += int(
                    ((llrs < 0).astype(np.uint8) != bits).sum())
    return total


def ber_vs_iterations(snr_db: float, config: DecoderConfig, num_blocks: int,
                      seed: int) -> np.ndarray:
    """BER after each full iteration 1..config.iterations.

    Deterministic for a fixed seed; returns an array of length
    config.iterations.
    """
    mc = run_monte_carlo(config, snr_db, num_blocks, seed, per_iteration=True)
    return mc.per_iteration_bit_errors / mc.info_bits
