"""BPSK over AWGN and the soft demapper feeding the decoder.

Conventions, fixed so that simulation output is reproducible bit for bit:

* Modulation: bit 0 -> +1.0, bit 1 -> -1.0 (unit symbol energy).
* Noise variance for a target Eb/N0: sigma^2 = 1 / (2 * R * 10**(Eb/N0_dB / 10)).
  The code rate R includes the tail overhead, R = n / (3n + 12); at n=40
  the 12 tail bits are a noticeable fraction of the block.
* Demapping: L = 2 * r / sigma^2 under L = ln(P(b=0)/P(b=1)).
* RNG: numpy's Philox counter-based generator.  Block b of a run seeded
  with s uses Generator(Philox(key=[s, b])) and draws, in order, the n
  information bits then the 3n+12 noise samples.  Gaussians come from
  numpy's ziggurat sampler.  Blocks are therefore independent of batch
  or thread scheduling.
* Codeword serialisation order (also the noise-draw order):
  systematic | parity1 | parity2 | tail1 info | tail1 parity
  | tail2 info | tail2 parity.
"""

from dataclasses import dataclass

import numpy as np

from .trellis import CodeWord


@dataclass(frozen=True)
class ChannelConfig:
    """SNR point of a simulation run."""
    ebn0_db: float
    code_rate: float

    def __post_init__(self):
        if self.code_rate <= 0:
            raise ValueError("code rate must be positive")

    @classmethod
    def for_block_size(cls, n: int, ebn0_db: float) -> "ChannelConfig":
        """Rate-1/3 turbo code configuration with the tail-bit rate penalty."""
        return cls(ebn0_db=ebn0_db, code_rate=n / (3 * n + 12))

    @property
    def noise_variance(self) -> float:
        return 1.0 / (2.0 * self.code_rate * 10.0 ** (self.ebn0_db / 10.0))


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """The dedicated RNG stream of one block: Philox keyed by (seed, block)."""
    return np.random.Generator(np.random.Philox(key=np.array(
        [seed, block_index], dtype=np.uint64)))


def bpsk_modulate(bits) -> np.ndarray:
    """Map bits to unit-energy antipodal symbols, 0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def awgn(symbols, noise_variance: float, seed) -> np.ndarray:
    """Add white Gaussian noise of the given variance.

    seed may be an int (opens a fresh Philox stream) or an existing
    numpy Generator (draws from it in place).
    """
    if noise_variance <= 0:
        raise ValueError(f"noise variance must be positive, got {noise_variance}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(
        np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    symbols = np.asarray(symbols, dtype=np.float64)
    return symbols + np.sqrt(noise_variance) * rng.standard_normal(symbols.shape)


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


def transmit(cw: CodeWord, noise_variance: float, seed) -> ChannelLlrs:
    """Modulate a code word, add noise, demap, and split the LLR streams."""
    rx = awgn(bpsk_modulate(serialize_codeword(cw)), noise_variance, seed)
    return split_llrs(llr_demap(rx, noise_variance), cw.n)
