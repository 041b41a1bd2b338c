"""BPSK over AWGN and the soft demapper feeding the decoder.

Conventions, fixed so that simulation output is reproducible bit for bit:

* Modulation: bit 0 -> +1.0, bit 1 -> -1.0 (unit symbol energy).
* Noise variance for a target Eb/N0: sigma^2 = 1 / (2 * R * 10**(Eb/N0_dB / 10)).
  The code rate R includes the tail overhead, R = n / (3n + 12); at n=40
  the 12 tail bits are a noticeable fraction of the block.
* Demapping: L = 2 * r / sigma^2 under L = ln(P(b=0)/P(b=1)).
* RNG: numpy's Philox counter-based generator.  Block b of a run seeded
  with s uses block_rng(s, b) = Generator(Philox(key=[s, b])), both key
  words in [0, 2**64).  lteturbo.turbo.simulate_blocks is the one
  per-block recipe: it draws, in order, the n information bits then the
  3n+12 noise samples.  Gaussians come from numpy's ziggurat sampler.
  Blocks are therefore independent of batch or thread scheduling.
* Codeword serialisation order (also the noise-draw order):
  systematic | parity1 | parity2 | tail1 info | tail1 parity
  | tail2 info | tail2 parity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .trellis import CodeWord


@dataclass(frozen=True)
class ChannelConfig:
    """SNR point of a simulation run."""
    ebn0_db: float
    code_rate: float

    def __post_init__(self):
        if not math.isfinite(self.ebn0_db):
            raise ValueError(f"Eb/N0 must be finite, got {self.ebn0_db} dB")
        if self.code_rate <= 0:
            raise ValueError("code rate must be positive")

    @classmethod
    def for_block_size(cls, n: int, ebn0_db: float) -> "ChannelConfig":
        """Rate-1/3 turbo code configuration with the tail-bit rate penalty."""
        return cls(ebn0_db=ebn0_db, code_rate=n / (3 * n + 12))

    @property
    def noise_variance(self) -> float:
        return 1.0 / (2.0 * self.code_rate * 10.0 ** (self.ebn0_db / 10.0))


KEY_LIMIT = 2 ** 64  # each Philox key word is a uint64


def check_key_word(name: str, value: int) -> None:
    """Reject a seed or block index that is not a Philox key word."""
    if not 0 <= value < KEY_LIMIT:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """The dedicated RNG stream of one block: Philox keyed by (seed, block)."""
    check_key_word("seed", seed)
    check_key_word("block index", block_index)
    return np.random.Generator(np.random.Philox(key=np.array(
        [seed, block_index], dtype=np.uint64)))


def bpsk_modulate(bits) -> np.ndarray:
    """Map bits to unit-energy antipodal symbols, 0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def llr_demap(received, noise_variance: float) -> np.ndarray:
    """Channel LLRs of BPSK over AWGN: L = 2r / sigma^2."""
    if noise_variance <= 0:
        raise ValueError(f"noise variance must be positive, got {noise_variance}")
    return 2.0 * np.asarray(received, dtype=np.float64) / noise_variance


@dataclass(frozen=True)
class ChannelLlrs:
    """Demapped LLRs of one turbo code word (or a batch of them).

    lu is the systematic stream; parity1/parity2 belong to the first and
    second constituent encoder; the four tail streams carry the 12
    termination bits, 3 info-tail + 3 parity-tail per encoder.
    """
    lu: np.ndarray
    parity1: np.ndarray
    parity2: np.ndarray
    tail1_info: np.ndarray
    tail1_parity: np.ndarray
    tail2_info: np.ndarray
    tail2_parity: np.ndarray

    @property
    def n(self) -> int:
        return self.lu.shape[-1]


def serialize_codeword(cw: CodeWord) -> np.ndarray:
    """Flatten a code word to its (..., 3n+12) transmission order."""
    return np.concatenate([cw.systematic, cw.parity1, cw.parity2,
                           cw.tail.enc1_info, cw.tail.enc1_parity,
                           cw.tail.enc2_info, cw.tail.enc2_parity], axis=-1)


def split_llrs(llrs, n: int) -> ChannelLlrs:
    """Undo serialize_codeword on a demapped LLR vector."""
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape[-1] != 3 * n + 12:
        raise ValueError(f"expected {3 * n + 12} LLRs for block size {n}, "
                         f"got {llrs.shape[-1]}")
    return ChannelLlrs(
        lu=llrs[..., 0:n],
        parity1=llrs[..., n:2 * n],
        parity2=llrs[..., 2 * n:3 * n],
        tail1_info=llrs[..., 3 * n:3 * n + 3],
        tail1_parity=llrs[..., 3 * n + 3:3 * n + 6],
        tail2_info=llrs[..., 3 * n + 6:3 * n + 9],
        tail2_parity=llrs[..., 3 * n + 9:3 * n + 12])
