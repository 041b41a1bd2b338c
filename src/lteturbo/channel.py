"""BPSK over AWGN and the soft demapper feeding the decoder.

Conventions, fixed so that simulation output is reproducible bit for bit:

* Modulation: bit 0 -> +1.0, bit 1 -> -1.0 (unit symbol energy).
* Noise variance for a target Eb/N0: sigma^2 = 1 / (2 * R * 10**(Eb/N0_dB / 10)).
  The code rate R includes the tail overhead, R = n / (3n + 12); at n=40
  the 12 tail bits are a noticeable fraction of the block.
* Demapping: L = 2 * r / sigma^2 under L = ln(P(b=0)/P(b=1)).
* RNG: numpy's Philox counter-based generator.  Block b of a run seeded
  with s uses block_rng(s, b) = Generator(Philox(key=[s, b])), with s
  and b integers in [0, 2**64).  lteturbo.turbo.simulate_blocks is the
  one per-block recipe: it draws, in order, the n information bits then
  the 3n+12 noise samples.  Gaussians come from numpy's ziggurat sampler.
  Blocks are therefore independent of batch or thread scheduling.  A
  Philox stream is addressed by its key alone, so simulate_blocks builds
  one generator per batch and rekey_block_rng resets it to each later
  block's key: the same streams as a fresh block_rng per block, without
  building one.
* Codeword serialisation order (also the noise-draw order): the field
  order of trellis.CodeWord, which is the transmission order,
  systematic | parity1 | parity2 | tail1 info | tail1 parity
  | tail2 info | tail2 parity.  CodeWord is the one record of these
  seven streams: serialize_codeword flattens one holding bits, and
  split_llrs cuts the demapped LLRs back into one.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _checks
from .trellis import CodeWord


@dataclass(frozen=True)
class ChannelConfig:
    """SNR point of a simulation run."""
    ebn0_db: float
    code_rate: float

    def __post_init__(self):
        # NaN fails the comparison; math.isfinite would raise OverflowError on 10**400
        if not -math.inf < self.ebn0_db < math.inf:
            raise ValueError(f"Eb/N0 must be finite, got {self.ebn0_db} dB")
        _checks.positive("code rate", self.code_rate)
        try:
            variance = self.noise_variance
        except ArithmeticError:   # 10**400 overflows, 1 / 0.0 divides by zero
            variance = math.inf
        _checks.positive(f"noise variance at Eb/N0 {self.ebn0_db} dB", variance)

    @classmethod
    def for_block_size(cls, n: int, ebn0_db: float) -> "ChannelConfig":
        """Rate-1/3 turbo code configuration with the tail-bit rate penalty."""
        n = _checks.integer("block size", n, 1)
        return cls(ebn0_db=ebn0_db, code_rate=n / (3 * n + 12))

    @property
    def noise_variance(self) -> float:
        return 1.0 / (2.0 * self.code_rate * 10.0 ** (self.ebn0_db / 10.0))


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """The dedicated RNG stream of one block: Philox keyed by (seed, block)."""
    key = [_checks.key_word("seed", seed), _checks.key_word("block index", block_index)]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def rekey_block_rng(rng: np.random.Generator, seed: int, block_index: int) -> None:
    """Reset a block_rng generator to the start of block_rng(seed, block_index).

    Whatever rng drew before, its Philox gets the key (seed, block_index),
    counter 0, an empty buffer and no cached uint32, so its next draws
    are byte for byte those of a fresh block_rng(seed, block_index).
    Several times cheaper than building that generator.
    """
    key = (_checks.key_word("seed", seed), _checks.key_word("block index", block_index))
    # tuples, not uint64 arrays: the state setter reads them faster
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def bpsk_modulate(bits) -> np.ndarray:
    """Map 0/1 bits to unit-energy antipodal symbols, 0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * _checks.bits(bits)


def llr_demap(received, noise_variance: float) -> np.ndarray:
    """Channel LLRs of BPSK over AWGN: L = 2r / sigma^2.

    A finite received value for which 2r or L overflows float64 raises
    ValueError; +-inf and NaN received values give +-inf and NaN.
    """
    [received] = _checks.float_arrays(received)
    noise_variance = _checks.positive("noise variance", noise_variance)
    with np.errstate(over="ignore"):
        llrs = 2.0 * received / noise_variance
    overflow = np.isinf(llrs)
    if overflow.any() and np.isfinite(received[overflow]).any():
        raise ValueError(f"a finite received value's LLR 2r / {noise_variance:g} "
                         "overflows float64")
    return llrs


def serialize_codeword(cw: CodeWord) -> np.ndarray:
    """Flatten a code word to its (..., 3n+12) transmission order."""
    _checks.instance("cw", cw, CodeWord)
    return np.concatenate([getattr(cw, f.name) for f in fields(cw)], axis=-1)


def split_llrs(llrs, n: int) -> CodeWord:
    """Undo serialize_codeword on a demapped LLR vector: the code word's
    seven streams, holding LLRs."""
    n = _checks.integer("block size", n, 1)
    [llrs] = _checks.float_arrays(llrs)
    if llrs.shape[-1:] != (3 * n + 12,):
        raise ValueError(f"expected {3 * n + 12} LLRs per block for block size {n}, "
                         f"got shape {llrs.shape}")
    # views at the widths n, n, n, 3, 3, 3, 3
    return CodeWord(*np.split(llrs, [n, 2 * n, 3 * n, 3 * n + 3, 3 * n + 6,
                                     3 * n + 9], axis=-1))
