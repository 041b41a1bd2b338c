"""The 8-state LTE constituent code and its trellis.

The constituent encoder is the recursive systematic convolutional (RSC)
code with feedback polynomial 1 + D^2 + D^3 and feedforward polynomial
1 + D + D^3 (octal 13/15).  The trellis edges are derived from the
shift-register step _rsc_step; rsc_encode runs the same register on
whole bit arrays.  tests/oracles.py's independent ref_rsc_encode ties
the two together: rsc_encode must match its output, and each of its
steps must be a trellis edge.

State convention: the three register bits (r1, r2, r3), r1 most recent,
packed as s = r1*4 + r2*2 + r3.  The encoder starts in state 0 and three
tail bits drive it back to state 0.

EDGES is the whole trellis: its 16 edges, ordered by (start state,
information bit).  Edge labels are bipolar (bit 0 -> +1, bit 1 -> -1) so
they multiply LLRs directly.  Each edge carries two labels: u for the
information bit and c2 for the parity bit.  The code is systematic, so
the first coded stream is the information bit itself: its channel LLRs
join the a-priori LLRs in lu, and an edge's metric is u*lu + c2*lc2.
The decoder reads only these labels and the edges' states:
siso._edge_wiring derives its wiring from them.
"""

from dataclasses import dataclass

import numpy as np

from . import _checks
from .qpp import QppParams, permutation

NUM_STATES = 8


def _rsc_step(state: int, bit: int) -> tuple[int, int]:
    """One shift-register step: (state, input bit) -> (next state, parity bit)."""
    r1, r2, r3 = (state >> 2) & 1, (state >> 1) & 1, state & 1
    feedback = r2 ^ r3
    internal = bit ^ feedback
    parity = internal ^ r1 ^ r3
    return (internal << 2) | (r1 << 1) | r2, parity


@dataclass(frozen=True)
class TrellisEdge:
    start_state: int
    end_state: int
    u: int    # bipolar information label
    c2: int   # bipolar parity label

    @property
    def parity_bit(self) -> int:
        return (1 - self.c2) // 2


# The 16 edges, ordered by (start state, information bit): EDGES[2*s + b]
# leaves state s on bit b.  The encoder starts in state 0.
EDGES = tuple(TrellisEdge(start_state=s, end_state=ns, u=1 - 2 * bit, c2=1 - 2 * parity)
              for s in range(NUM_STATES) for bit in (0, 1)
              for ns, parity in [_rsc_step(s, bit)])


def rsc_encode(bits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode information bits with the constituent RSC code.

    Parameters
    ----------
    bits : array-like of 0/1, shape (..., n)
        Information bits; leading axes are independent blocks.

    Returns
    -------
    (parity, tail_info, tail_parity)
        Parity of shape (..., n) plus the 3 tail input and 3 tail parity
        bits, shape (..., 3), that drive the encoder back to state 0.

    The encoder starts in state 0.  Encoding of the information section
    is linear over GF(2); the tail depends affinely on the final state.
    No loop runs over the bits: the register's internal bits are
    w = x / (1 + D^2 + D^3) = x (1 + D^2 + D^3 + D^4) / (1 + D^7), a
    fixed filter followed by a stride-7 XOR prefix, and the parity is
    w (1 + D + D^3).
    """
    bits = _checks.bits(bits)
    lead = bits.shape[:-1]
    n = bits.shape[-1]
    m = -(-n // 7) * 7   # n rounded up to whole rows of 7

    x = np.zeros(lead + (4 + m,), dtype=np.uint8)   # four zero bits before bit 0
    x[..., 4:4 + n] = bits
    y = x[..., 4:] ^ x[..., 2:-2] ^ x[..., 1:-3] ^ x[..., :-4]
    w = np.zeros(lead + (3 + n,), dtype=np.uint8)   # three zero bits before w[0]
    w[..., 3:] = np.bitwise_xor.accumulate(
        y.reshape(lead + (m // 7, 7)), axis=-2).reshape(lead + (m,))[..., :n]
    parity = w[..., 3:] ^ w[..., 2:-1] ^ w[..., :-3]

    # the final register (r1, r2, r3) = (w[n-1], w[n-2], w[n-3]); each
    # tail bit makes the internal bit 0, so the register shifts in zeros
    r1, r2, r3 = w[..., -1], w[..., -2], w[..., -3]
    tail_info = np.stack([r2 ^ r3, r1 ^ r2, r1], axis=-1)
    tail_parity = np.stack([r1 ^ r3, r2, r1], axis=-1)
    return parity, tail_info, tail_parity


@dataclass(frozen=True)
class CodeWord:
    """Rate-1/3 turbo code word: three length-n streams plus 12 tail bits,
    3 info-tail + 3 parity-tail per constituent encoder.  The field order
    is the transmission order.  turbo_encode fills it with bits and
    lteturbo.channel.split_llrs with channel LLRs; serialize_codeword
    flattens it.  A leading batch axis is allowed on every stream."""
    systematic: np.ndarray
    parity1: np.ndarray
    parity2: np.ndarray
    tail1_info: np.ndarray
    tail1_parity: np.ndarray
    tail2_info: np.ndarray
    tail2_parity: np.ndarray

    lu = property(lambda self: self.systematic)   # perfbench's name for systematic


def turbo_encode(bits, params: QppParams) -> CodeWord:
    """Encode with the full rate-1/3 turbo code.

    The systematic stream is the input; parity1 comes from encoding the
    input directly, parity2 from encoding the QPP-permuted input.  Both
    constituent encoders are terminated independently.
    """
    bits = _checks.bits(bits)
    pi = permutation(params)
    if bits.shape[-1] != params.n:
        raise ValueError(f"input length {bits.shape[-1]} does not match block size {params.n}")
    parity1, *tail1 = rsc_encode(bits)
    parity2, *tail2 = rsc_encode(bits.take(pi, axis=-1))
    return CodeWord(bits, parity1, parity2, *tail1, *tail2)
