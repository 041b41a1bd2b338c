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

from .qpp import check_integer
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
        if not 0 < self.code_rate < math.inf:
            raise ValueError(f"code rate must be positive and finite, "
                             f"got {self.code_rate}")
        try:
            variance = self.noise_variance
        except (OverflowError, ZeroDivisionError):
            variance = math.inf
        if not 0 < variance < math.inf:
            raise ValueError(f"Eb/N0 {self.ebn0_db} dB at code rate "
                             f"{self.code_rate} gives no positive, finite "
                             f"noise variance")

    @classmethod
    def for_block_size(cls, n: int, ebn0_db: float) -> "ChannelConfig":
        """Rate-1/3 turbo code configuration with the tail-bit rate penalty."""
        n = check_integer("n", n)
        if n < 1:
            raise ValueError(f"block size must be >= 1, got {n}")
        return cls(ebn0_db=ebn0_db, code_rate=n / (3 * n + 12))

    @property
    def noise_variance(self) -> float:
        return 1.0 / (2.0 * self.code_rate * 10.0 ** (self.ebn0_db / 10.0))


KEY_LIMIT = 2 ** 64  # each Philox key word is a uint64


def check_key_word(name: str, value: int) -> int:
    """The seed or block index as a Philox key word (check_integer), a Python int."""
    value = check_integer(name, value)
    if not 0 <= value < KEY_LIMIT:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    return value


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """The dedicated RNG stream of one block: Philox keyed by (seed, block)."""
    key = [check_key_word("seed", seed), check_key_word("block index", block_index)]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def rekey_block_rng(rng: np.random.Generator, seed: int, block_index: int) -> None:
    """Reset a block_rng generator to the start of block_rng(seed, block_index).

    Whatever rng drew before, its Philox gets the key (seed, block_index),
    counter 0, an empty buffer and no cached uint32, so its next draws
    are byte for byte those of a fresh block_rng(seed, block_index).
    Several times cheaper than building that generator.
    """
    key = (check_key_word("seed", seed), check_key_word("block index", block_index))
    # tuples, not uint64 arrays: the state setter reads them faster
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def as_float_array(x) -> np.ndarray:
    """x as a float64 array; an integer beyond float64 raises ValueError
    where numpy raises OverflowError."""
    try:
        return np.asarray(x, dtype=np.float64)
    except OverflowError as exc:
        raise ValueError(f"value out of float64 range: {exc}") from None


def bpsk_modulate(bits) -> np.ndarray:
    """Map bits to unit-energy antipodal symbols, 0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * as_float_array(bits)


def check_noise_variance(value) -> float:
    """value as a float in (0, inf), the one noise-variance rule: a number
    beyond float64 or outside (0, inf), NaN included, raises ValueError."""
    if not hasattr(value, "__float__"):   # float() would parse a string
        raise TypeError(f"noise variance must be a number, got {value!r}")
    try:
        variance = float(value)
    except OverflowError:   # an integer beyond float64
        variance = math.inf
    if not 0 < variance < math.inf:
        raise ValueError(f"noise variance must be positive and finite, got {value}")
    return variance


def llr_demap(received, noise_variance: float) -> np.ndarray:
    """Channel LLRs of BPSK over AWGN: L = 2r / sigma^2."""
    return 2.0 * as_float_array(received) / check_noise_variance(noise_variance)


def serialize_codeword(cw: CodeWord) -> np.ndarray:
    """Flatten a code word to its (..., 3n+12) transmission order."""
    return np.concatenate([getattr(cw, f.name) for f in fields(cw)], axis=-1)


def split_llrs(llrs, n: int) -> CodeWord:
    """Undo serialize_codeword on a demapped LLR vector: the code word's
    seven streams, holding LLRs."""
    n = check_integer("n", n)
    if n < 1:
        raise ValueError(f"block size must be >= 1, got {n}")
    llrs = as_float_array(llrs)
    if llrs.shape[-1:] != (3 * n + 12,):
        raise ValueError(f"expected {3 * n + 12} LLRs per block for block size {n}, "
                         f"got shape {llrs.shape}")
    # views at the widths n, n, n, 3, 3, 3, 3
    return CodeWord(*np.split(llrs, [n, 2 * n, 3 * n, 3 * n + 3, 3 * n + 6,
                                     3 * n + 9], axis=-1))
