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

Edge labels are bipolar (bit 0 -> +1, bit 1 -> -1) so they multiply LLRs
directly.  Each edge carries three labels: u for the information bit, c1
for the first coded stream and c2 for the second.  For a systematic code
the first coded stream is the information bit itself, so c1 == u on every
edge; c2 is the parity bit.  That is what collapses the 16 branch metrics
to four values g1, -g1, g2, -g2: the first coded stream's LLRs are part
of lu, and an edge's metric is +-lu +- lc2.  The two edges of each state
carry opposite values, so the decoder stores only g1 and g2 (see
siso.compute_branch_metrics) and adds or subtracts them.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qpp import QppParams, permutation

NUM_STATES = 8


def _bipolar(bit):
    return 1 - 2 * int(bit)


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
    c1: int   # bipolar first-coded-stream label (= u for this systematic code)
    c2: int   # bipolar second-coded-stream label (the parity bit)

    @property
    def info_bit(self) -> int:
        return (1 - self.u) // 2

    @property
    def parity_bit(self) -> int:
        return (1 - self.c2) // 2


class TrellisSpec:
    """The 16-edge trellis plus precomputed decoder wiring tables.

    Attributes
    ----------
    num_states : int
    initial_state : int
    edges : tuple of TrellisEdge
        All 16 edges, ordered by (start_state, info bit).
    fwd_prev, fwd_gamma_idx : (8, 2) int arrays
        For each end state, its two predecessor states and, per incoming
        edge, an index into the metric values [g1, g2, -g2, -g1].  The
        decoder's table holds only [g1, g2]; siso._signed_wiring turns
        each pair of indices (K, 3 - K) into +g[K] and -g[K].
    bwd_next, bwd_gamma_idx : (8, 2) int arrays
        Same wiring read in the other direction: per start state, its two
        successor states and the matching metric indices.
    edge_start, edge_end, edge_gamma_idx, edge_info : (16,) int arrays
        Flat per-edge views used by the LLR computation.
    """

    def __init__(self):
        edges = []
        for s in range(NUM_STATES):
            for bit in (0, 1):
                ns, parity = _rsc_step(s, bit)
                edges.append(TrellisEdge(
                    start_state=s, end_state=ns,
                    u=_bipolar(bit), c1=_bipolar(bit), c2=_bipolar(parity)))
        self.num_states = NUM_STATES
        self.initial_state = 0
        self.edges = tuple(edges)

        # gamma value index per (u, c2) sign pattern, into [g1, g2, -g2, -g1]:
        # (+,+) -> g1, (-,+) -> g2, (+,-) -> g3 = -g2, (-,-) -> g4 = -g1.
        def gamma_idx(e):
            return {(1, 1): 0, (-1, 1): 1, (1, -1): 2, (-1, -1): 3}[(e.u, e.c2)]

        self.edge_start = np.array([e.start_state for e in edges])
        self.edge_end = np.array([e.end_state for e in edges])
        self.edge_gamma_idx = np.array([gamma_idx(e) for e in edges])
        self.edge_info = np.array([e.info_bit for e in edges])

        fwd = [[] for _ in range(NUM_STATES)]
        bwd = [[] for _ in range(NUM_STATES)]
        for e in edges:
            fwd[e.end_state].append((e.start_state, gamma_idx(e)))
            bwd[e.start_state].append((e.end_state, gamma_idx(e)))
        for rows in (fwd, bwd):
            for r in rows:
                r.sort()
        self.fwd_prev = np.array([[p for p, _ in r] for r in fwd])
        self.fwd_gamma_idx = np.array([[g for _, g in r] for r in fwd])
        self.bwd_next = np.array([[n for n, _ in r] for r in bwd])
        self.bwd_gamma_idx = np.array([[g for _, g in r] for r in bwd])


@lru_cache(maxsize=1)
def lte_trellis() -> TrellisSpec:
    """The trellis of the LTE constituent code (octal 13/15, 8 states)."""
    return TrellisSpec()


@dataclass(frozen=True)
class RscCodeword:
    """Output of one constituent encoder: parity stream plus termination."""
    parity: np.ndarray      # (..., n) parity bits for the information section
    tail_info: np.ndarray   # (..., 3) tail input bits (transmitted systematically)
    tail_parity: np.ndarray  # (..., 3) tail parity bits


def rsc_encode(bits) -> RscCodeword:
    """Encode information bits with the constituent RSC code.

    Parameters
    ----------
    bits : array-like of 0/1, shape (..., n)
        Information bits; leading axes are independent blocks.

    Returns
    -------
    RscCodeword
        Parity of shape (..., n) plus the 3 tail input and 3 tail parity
        bits that drive the encoder back to state 0.

    The encoder starts in state 0.  Encoding of the information section
    is linear over GF(2); the tail depends affinely on the final state.
    """
    bits = np.asarray(bits)
    if bits.ndim == 0 or bits.shape[-1] < 1:
        raise ValueError("need at least one information bit")
    bits = bits.astype(np.uint8)
    lead = bits.shape[:-1]
    n = bits.shape[-1]

    r1 = np.zeros(lead, dtype=np.uint8)
    r2 = np.zeros(lead, dtype=np.uint8)
    r3 = np.zeros(lead, dtype=np.uint8)
    parity = np.empty_like(bits)
    for k in range(n):
        internal = bits[..., k] ^ r2 ^ r3
        parity[..., k] = internal ^ r1 ^ r3
        r1, r2, r3 = internal, r1, r2

    tail_info = np.empty(lead + (3,), dtype=np.uint8)
    tail_parity = np.empty(lead + (3,), dtype=np.uint8)
    for k in range(3):
        tail_info[..., k] = r2 ^ r3          # makes the internal bit 0
        tail_parity[..., k] = r1 ^ r3
        r1, r2, r3 = np.zeros_like(r1), r1, r2
    return RscCodeword(parity=parity, tail_info=tail_info, tail_parity=tail_parity)


@dataclass(frozen=True)
class TerminationBits:
    """The 12 tail bits, grouped as 3 info-tail + 3 parity-tail per encoder."""
    enc1_info: np.ndarray
    enc1_parity: np.ndarray
    enc2_info: np.ndarray
    enc2_parity: np.ndarray


@dataclass(frozen=True)
class CodeWord:
    """Rate-1/3 turbo code word: three length-n streams plus 12 tail bits."""
    systematic: np.ndarray
    parity1: np.ndarray
    parity2: np.ndarray
    tail: TerminationBits

    @property
    def n(self) -> int:
        return self.systematic.shape[-1]

    @property
    def num_transmitted_bits(self) -> int:
        return 3 * self.n + 12


def turbo_encode(bits, params: QppParams) -> CodeWord:
    """Encode with the full rate-1/3 turbo code.

    The systematic stream is the input; parity1 comes from encoding the
    input directly, parity2 from encoding the QPP-permuted input.  Both
    constituent encoders are terminated independently.
    """
    bits = np.asarray(bits).astype(np.uint8)
    if bits.shape[-1] != params.n:
        raise ValueError(f"input length {bits.shape[-1]} does not match block size {params.n}")
    pi = permutation(params)
    enc1 = rsc_encode(bits)
    enc2 = rsc_encode(bits[..., pi])
    return CodeWord(
        systematic=bits,
        parity1=enc1.parity,
        parity2=enc2.parity,
        tail=TerminationBits(
            enc1_info=enc1.tail_info, enc1_parity=enc1.tail_parity,
            enc2_info=enc2.tail_info, enc2_parity=enc2.tail_parity))
