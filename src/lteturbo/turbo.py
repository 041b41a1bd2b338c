"""Iterative turbo decoding: two SISO passes per full iteration.

One full iteration runs the first constituent decoder on the systematic
and parity1 streams, interleaves its extrinsic output, runs the second
constituent decoder on the interleaved systematic and parity2 streams,
and deinterleaves that extrinsic back as the next a-priori input.  The
first iteration starts with zero a-priori.  After the configured number
of iterations the decision statistic is

    final_llr = lu + extrinsic1 + deinterleave(extrinsic2)

and hard_bits[k] = 1 where final_llr[k] < 0 (positive LLR means bit 0).

A constituent decoder's lu input is the systematic LLRs plus an
exchanged extrinsic, and SisoInput accepts |LLR| <= 1e250.  turbo_decode
rejects systematic LLRs beyond half that bound and saturates every
exchanged extrinsic at that half, so no number of iterations can push
an input past the bound.

All decode entry points accept a leading batch axis on the LLR arrays;
the Monte-Carlo helper below relies on it.  Interleaving gathers with
v.take(pi, axis=-1): on a batch, v[..., pi] returns the same values
F-ordered, so decoder 2's lu, every later decoder-1 lu and final_llrs
would be read transposed.  take returns them C-ordered.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import _checks
from .channel import ChannelConfig, block_rng, bpsk_modulate, llr_demap, \
    rekey_block_rng, serialize_codeword, split_llrs
from .qpp import QppParams, inverse_permutation, permutation
from .siso import _LLR_LIMIT, DecoderConfig, OpCounts, SisoInput, quantize_llrs, siso_decode
from .trellis import CodeWord, turbo_encode

_EXCHANGE_LIMIT = 0.5 * _LLR_LIMIT   # see the module docstring


@dataclass
class DecodeResult:
    hard_bits: np.ndarray                 # (..., n) 0/1 decisions
    final_llrs: np.ndarray                # (..., n)
    ops: OpCounts
    per_iteration_llrs: list | None = field(default=None, repr=False)


def _saturate(x):
    """x clipped in place to +-_EXCHANGE_LIMIT."""
    return np.clip(x, -_EXCHANGE_LIMIT, _EXCHANGE_LIMIT, out=x)


def turbo_decode(ch: CodeWord, config: DecoderConfig,
                 trace_iterations: bool = False) -> DecodeResult:
    """Run config.iterations full iterations on the channel LLRs ch.

    With trace_iterations=True, per_iteration_llrs[i] is the combined
    LLR vector after iteration i+1, byte for byte the final_llrs of an
    (i+1)-iteration decode.  Only perfbench's count pass reads it, and
    it calls turbo_decode(ch, config, True) with the flag positional.
    """
    _checks.instance("ch", ch, CodeWord)
    qpp = _checks.instance("config", config, DecoderConfig).qpp
    if qpp is None:
        raise ValueError("turbo decoding needs DecoderConfig.qpp")
    [systematic] = _checks.float_arrays(ch.systematic)
    if systematic.shape[-1:] != (qpp.n,):
        raise ValueError(f"channel LLR shape {systematic.shape} does not match "
                         f"interleaver block size {qpp.n}")
    q = config.quantization
    quant = (lambda x: x) if q is None else (lambda x: quantize_llrs(x, *q))
    pi = permutation(qpp)
    ip = inverse_permutation(qpp)

    lu = _checks.bounded("systematic LLRs", quant(systematic), _EXCHANGE_LIMIT)
    t1i, t1p = quant(ch.tail1_info), quant(ch.tail1_parity)
    t2i, t2p = quant(ch.tail2_info), quant(ch.tail2_parity)

    ops = OpCounts()
    trace = [] if trace_iterations else None
    apriori = np.zeros_like(lu)
    for i in range(1, config.iterations + 1):
        # A SISO call is where a batch peaks, so no dead block-sized array
        # lives beside one: each parity stream is quantized at its call,
        # decoder 1's input is summed into apriori's buffer, each
        # SisoResult is dropped before its extrinsic is quantized, and no
        # ext1 is kept: lu + ext1 is summed into its buffer and gathered
        # as decoder 2's input, and the combined LLRs come from that
        # input's inverse gather, bit for bit (lu + ext1) + apriori.
        s1 = siso_decode(SisoInput(lu=np.add(lu, apriori, out=apriori), lc2=quant(ch.parity1),
                                   tail_lu=t1i, tail_lc2=t1p), config)
        del apriori
        ext1 = s1.extrinsic
        ops += s1.ops
        del s1
        ext1 = quant(_saturate(ext1))
        lu2 = np.add(lu, ext1, out=ext1).take(pi, axis=-1)
        del ext1
        s2 = siso_decode(SisoInput(lu=lu2, lc2=quant(ch.parity2),
                                   tail_lu=t2i, tail_lc2=t2p), config)
        ext2 = s2.extrinsic
        ops += s2.ops
        del s2
        apriori = quant(_saturate(ext2)).take(ip, axis=-1)
        del ext2
        if trace is not None or i == config.iterations:
            combined = lu2.take(ip, axis=-1) + apriori
            if trace is not None:
                trace.append(combined)
        del lu2
    # Hard decisions are built once here, not per iteration: an extra
    # per-iteration array raised the sweep's peak RSS by about 10%.
    return DecodeResult(
        hard_bits=(combined < 0).astype(np.uint8),
        final_llrs=combined,
        ops=ops,
        per_iteration_llrs=trace)


# ---------------------------------------------------------------------------
# Monte-Carlo engine.  Block b of a run is fully determined by (seed, b):
# its Philox stream provides the information bits and then the channel
# noise, so results do not depend on batching.

def simulate_blocks(qpp: QppParams, noise_variance: float, seed: int, lo: int,
                    hi: int) -> tuple[np.ndarray, CodeWord]:
    """Information bits and channel LLRs of blocks lo..hi-1 of a run.

    The one per-block recipe: block b draws its n information bits and
    then the 3n+12 Gaussians of its code word from block_rng(seed, b).
    The bits are those of rng.integers(0, 2, n, dtype=np.uint8), taken
    from ceil(n/8) raw Philox words.
    One generator serves the range: block_rng(seed, lo) builds it and
    rekey_block_rng resets it for each later block, so every block sees
    exactly the stream of its own block_rng.  The bits are turbo encoded
    and BPSK modulated in serialize_codeword order, the noise scaled by
    sqrt(noise_variance) is added, and the received values are demapped
    and split.  Returns bits of shape (hi - lo, n) and the LLRs batched
    the same way.  Row i is block lo + i, byte for byte the same in any
    range that holds it.
    """
    n = _checks.instance("qpp", qpp, QppParams).n
    _checks.key_word("seed", seed)
    lo = _checks.integer("lo", lo, 0, _checks.KEY_LIMIT)
    hi = _checks.integer("hi", hi, lo, _checks.KEY_LIMIT)
    noise_variance = _checks.positive("noise variance", noise_variance)
    words = -(-n // 8)
    raw = np.empty((hi - lo, words), dtype="<u8")
    noise = np.empty((hi - lo, 3 * n + 12))
    for i, blk in enumerate(range(lo, hi)):
        if i:
            rekey_block_rng(rng, seed, blk)
        else:
            rng = block_rng(seed, blk)
        raw[i] = rng.bit_generator.random_raw(words)
        noise[i] = rng.standard_normal(3 * n + 12)
    # numpy's integers(0, 2, n, dtype=np.uint8) takes bit k as the top bit
    # of byte k of the little-endian word stream and leaves the stream at
    # the next whole word: the same bits and the same Gaussians after them
    bits = raw.view(np.uint8)[:, :n]
    bits >>= 7
    symbols = bpsk_modulate(serialize_codeword(turbo_encode(bits, qpp)))
    received = symbols + np.sqrt(noise_variance) * noise
    return bits, split_llrs(llr_demap(received, noise_variance), n)


@dataclass
class McResult:
    """Error accumulators of a Monte-Carlo run (one SNR point)."""
    blocks: int = 0
    info_bits: int = 0
    bit_errors: int = 0
    block_errors: int = 0
    ops: OpCounts = field(default_factory=OpCounts)
    decode_s: float = 0.0     # wall time inside turbo_decode; not part of any CSV

    @property
    def ber(self) -> float:
        return self.bit_errors / self.info_bits if self.info_bits else 0.0

    @property
    def fer(self) -> float:
        return self.block_errors / self.blocks if self.blocks else 0.0


def _default_batch_size(n: int) -> int:
    # 2**18 // n blocks of n stages: a forward-metric store of at most 2**18
    # stages of 7 float64 metrics, 14.7 MB, which binds for n >= 264.  Below
    # that, at most 1024 blocks: more rows spread each stage step's fixed
    # numpy call cost wider, and past 1024 that gain is gone.  Measured on a
    # 2-core box, 8 iterations: 512 -> 1024 rows took a block's decode from
    # 78 to 61 us at n=40 max-log (1.28x), 1.25x at n=128 max-log, 1.15x at
    # n=248 log-map, 1.42x at n=40 linear.  A 2048-block n=40 max-log
    # run_monte_carlo took 168, 153, 142, 143 and 140 ms (best of 5) at caps
    # of 512, 768, 1024, 1536 and 2048 blocks.  Over the cap of 512, 1024
    # added 0.6 MiB to that sweep's peak RSS in perfbench, no cap 4.2 MiB.
    return int(np.clip(2 ** 18 // n, 1, 1024))


def run_monte_carlo(config: DecoderConfig, snr_db: float, num_blocks: int,
                    seed: int) -> McResult:
    """Simulate and decode num_blocks random blocks at one Eb/N0 point.

    Blocks are simulated by simulate_blocks and decoded in batches whose
    size follows _default_batch_size(n) alone: 2**18 // n blocks, so that
    no batch stores forward metrics for more than 2**18 stages, and at
    most 1024 (two batches of 1024 blocks at n=40, batches of 256 at
    n=1024 and of 42 at n=6144).  Block b is the same whatever the
    batching.
    seed must be in [0, 2**64).  decode_s accumulates the wall time of
    the turbo_decode calls alone; generating and encoding the blocks and
    simulating the channel are not in it.
    """
    qpp = _checks.instance("config", config, DecoderConfig).qpp
    if qpp is None:
        raise ValueError("Monte-Carlo runs need DecoderConfig.qpp")
    num_blocks = _checks.integer("num_blocks", num_blocks, 0)
    _checks.key_word("seed", seed)
    n = qpp.n
    sigma2 = ChannelConfig.for_block_size(n, snr_db).noise_variance
    batch = _default_batch_size(n)
    total = McResult()
    for lo in range(0, num_blocks, batch):
        hi = min(lo + batch, num_blocks)
        b = hi - lo
        bits, ch = simulate_blocks(qpp, sigma2, seed, lo, hi)
        start = time.perf_counter()
        result = turbo_decode(ch, config)
        total.decode_s += time.perf_counter() - start
        errors = result.hard_bits != bits
        total.blocks += b
        total.info_bits += b * n
        total.bit_errors += int(errors.sum())
        total.block_errors += int(errors.any(axis=-1).sum())
        total.ops += result.ops
    return total
