"""Soft-input soft-output decoding of one constituent code.

The decoder is the usual forward/backward recursion over the 8-state
trellis with a selectable max* kernel.  The implementation follows a few
cost-saving conventions throughout:

* Branch metrics.  Only g1 = lu + lc2 and g2 = lc2 - lu are stored: a
  (2, ...) table per stage.  An edge's metric u*lu + c2*lc2 is
  c2*g[K], K = 0 when u == c2 and K = 1 otherwise, and _edge_wiring
  reads each edge's (sign, K) off its labels.  The two edges of every
  state carry +g[K] and -g[K], so a stage step adds g[K] on one edge
  and subtracts it on the other.  That changes no bit against a table
  that also stores -g: x - g is bitwise x + (-g), and no metric is ever
  -0.0 (they start at +0.0 or the sentinel, and normalizing gives
  +0.0), so which edge comes first in a max* call makes no difference.

* Normalization.  After every stage the state-0 metric is subtracted
  from all eight, always.  Every max* variant is shift-equivariant, so
  this changes no LLR (the unnormalized reference is tests/oracles.py)
  and keeps metrics bounded; state 0 becomes implicitly zero, so only
  seven values per stage are stored.

* Storage.  Only the forward metrics are kept, in a (stages, 7) + batch
  float64 array: 7 values per stage and block, with the stages rounded
  up to whole windows, so a block that no window length divides stores
  fewer than 7*window_len padding values, which are never read.
  Backward metrics live in one 8-slot register per lane (window): the
  backward recursion and the LLR output are fused into one loop, so
  each backward column is consumed the moment it is produced.  The
  lanes are rows of one array.  No block-sized array outlives its last
  read: the halved inputs live in the store's buffer until the forward
  pass overwrites them, each stage's LLRs go into its slab of the
  branch-metric table once the backward step has read that slab, and
  the store goes before the LLRs are copied out, the table right after.
  A call peaks at the store and the table.

  Every per-stage array -- branch metrics, forward metrics and
  LLR output -- is stage-major: stage k = w*L + j (lane w, window
  length L) of block b is row b of slab j*lanes + w, and the lane rows
  are ordered (w, b).  A forward step then reads and writes one
  contiguous slab of blocks rows, and a lane step one of lanes*blocks
  rows, where a block-major (blocks, n, .) layout would read a column
  whose rows lie n*32 bytes apart.  Inputs are transposed into the
  layout once and the LLRs back once per call.

  Within a slab everything is state-major: alpha and beta are
  (8, rows), a stage's branch metrics (2, rows) from a
  (L, 2, lanes, blocks) table, and the forward store
  (stages, 7) + batch, so a forward step writes alpha[1:] as one slab
  and a backward step copies the lanes' slabs back as whole rows.
  Each gather of the wiring tables copies whole rows, the two
  candidates of a butterfly are contiguous (8, rows) halves, and each
  LLR fold reduces a contiguous (8, rows) half over axis 0.

* LLR output.  Stage j's LLR is formed inside the backward step that
  retires beta's stage-(j+1) column, from that step's own gathers: the
  edge values are (alpha +- g) + beta, with beta gathered once for both
  the butterfly and the LLR, then put in the folds' order (the eight
  u=0 edges by start state, then the u=1 edges) by one take.

* Boundaries.  The forward recursion starts from the known state 0.  The
  backward recursion starts from state 0 at the end of the tail section
  and consumes the three tail-stage LLRs to reach the end of the
  information section (all-zero tail LLRs leave it uniform, +0.0 in all
  eight states).  In sliding-window mode each lane but the last
  acquires its backward boundary by recursing over up to
  `acquisition_len` stages of the following windows, from an all-zero
  (uniform) start, or from the tail boundary when the acquisition
  reaches the end of the block.  All lanes acquire in the same steps;
  a lane with a shorter acquisition, and the last lane, idle until
  their stages begin.

Inputs use bipolar labels: bit 0 -> +1.  An LLR is ln(P(b=0)/P(b=1)), so
positive LLRs vote for bit 0.  The recursions run on half-scale branch
metrics, gamma(e) = (u*lu + c2*lc2) / 2, where lu carries the
systematic and a-priori LLRs and lc2 the parity: a path's metric is then
its true log-likelihood exponent (P(b|L) ~ exp(x*L/2) per bit), so the
output reduction yields genuine a-posteriori LLRs and the extrinsic
split llr_out - lu removes the bit's own systematic-plus-a-priori
contribution exactly.  Without the 1/2 the output would carry 2*lu and
the iterative exchange would re-feed systematic information to itself.

Every array argument accepts leading batch axes: lu of shape (b, n)
decodes b independent blocks in one call (op counters then report b
times the per-block counts).
"""

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

import numpy as np

from . import _checks
from .maxstar import METRIC_NEG_INF, MaxStarMode, max_star, max_star_reduce
from .qpp import QppParams
from .trellis import EDGES

_LLR_LIMIT = 1.0e250   # largest |LLR| a SisoInput accepts; see METRIC_NEG_INF


@dataclass
class OpCounts:
    """Operation tally for one decode call, filled in closed form by siso_decode.

    Counted per logical block; a batched call over b blocks reports b
    times the per-block numbers.  Conventions:

    * max_star_pairs counts butterfly (state metric) max* evaluations
      only: 8 forward + 8 backward per in-block stage.  The three
      boundary-initialisation steps that consume the tail LLRs are not
      in-block work and are excluded; sliding-window acquisition stages
      are in-block work and are included.  Each butterfly stage also
      costs 16 adds (8 states x 2 edges) and 7 subs (the normalization).
    * Each information stage costs 2 adds + 2 subs of branch metrics
      (over the systematic, a-priori and parity streams), 32 adds of
      alpha + gamma + beta on 16 edges and 2 subs (LLR, extrinsic).
    * llr_reduces counts 8-way output reductions, two per stage (one per
      bit hypothesis); the pairwise max* steps inside a reduction are
      part of the reduction, not max_star_pairs.
    * muls counts correction-term multiplies: one per max* pair and
      seven per reduction in LINEAR_LOG mode, zero in the other modes.
      One-time setup work (e.g. interleaver generation) is not counted.
    * stream_reads is 3 per trellis stage, the three tail stages
      included: 3(n + 3) per block.  stream_writes is 2 per information
      stage (output LLR and extrinsic).
    """
    adds: int = 0
    subs: int = 0
    muls: int = 0
    max_star_pairs: int = 0
    llr_reduces: int = 0
    stream_reads: int = 0
    stream_writes: int = 0

    def __iadd__(self, other: "OpCounts") -> "OpCounts":
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)
        return self

    def as_dict(self) -> dict:
        return dict(vars(self))


def compute_branch_metrics(lu, lc2, axis: int = -1) -> np.ndarray:
    """Branch-metric table [g1, g2] of one stage or a whole block.

    g1 = lu + lc2 and g2 = lc2 - lu; the table's 2-entry axis is `axis`
    of the result (last by default).  Every edge's metric is +g1, -g1,
    +g2 or -g2; _edge_wiring says which.
    """
    lu, lc2 = _checks.float_arrays(lu, lc2)
    shape = np.broadcast_shapes(lu.shape, lc2.shape)
    axis = _checks.integer("axis", axis, -len(shape) - 1, len(shape)) % (len(shape) + 1)
    # written in place: no block-sized temporaries besides the table
    table = np.empty(shape[:axis] + (2,) + shape[axis:])
    g = np.moveaxis(table, axis, 0)   # g[i, ...] is an array, even 0-d
    np.add(lu, lc2, out=g[0, ...])
    np.subtract(lc2, lu, out=g[1, ...])
    return table


def _edge_wiring(edges):
    """_FWD, _BWD and _LLR_EDGES from the edges' (u, c2) labels.

    An edge's metric is c2*g[K], K = 0 when u == c2 and 1 otherwise; both
    edges of a state share K.  _FWD and _BWD are (far (2, 8), K (8,)):
    per end state (forward) or start state (backward), far[0] is the far
    state of its c2 = +1 edge and far[1] that of its c2 = -1 edge.
    _LLR_EDGES lists the backward gathers' edges, row * 8 + start state,
    in the folds' order: u=0 first, each half by start state.  A u=0
    edge has c2 = +1 exactly when K = 0, so it sits in row K.
    """
    far = np.zeros((2, 2, 8), dtype=np.intp)   # direction, row, state
    k = np.zeros((2, 8), dtype=np.intp)
    for e in edges:
        for d, (state, other) in enumerate([(e.end_state, e.start_state),
                                            (e.start_state, e.end_state)]):
            far[d, e.parity_bit, state] = other
            k[d, state] = e.u != e.c2
    llr_edges = (8 * np.array([k[1], 1 - k[1]]) + np.arange(8)).ravel()
    return (far[0], k[0]), (far[1], k[1]), llr_edges


_FWD, _BWD, _LLR_EDGES = _edge_wiring(EDGES)


def _butterfly(cand, g, mode):
    """8 two-way add-max* updates from gathered metrics, normalized.

    cand (2, 8, ...) holds, per output state, the metrics at the far end
    of its +g edge (row 0) and its -g edge (row 1); g (8, ...) is each
    state's branch metric.  cand is overwritten.  The state-0 metric is
    subtracted from all eight.  x - g is bitwise x + (-g): the sums are
    those of a table that stores -g.
    """
    cand[0] += g
    cand[1] -= g
    out = max_star(cand[0], cand[1], mode)
    return out - out[0]


def _kernel(metrics, g_table, wiring, mode):
    """The stage step all recursions share.

    metrics (8, ...) and g_table (2, ...) in, next metrics (8, ...) out,
    state-major: each gather copies whole rows, and the two candidate
    halves are contiguous.  wiring is _FWD or _BWD.
    """
    state_idx, g_idx = wiring
    # take costs a third of fancy indexing's call overhead
    return _butterfly(metrics.take(state_idx, axis=0), g_table.take(g_idx, axis=0), mode)


# ---------------------------------------------------------------------------
# opt-in records, kept only inside their context managers, so tests and
# benchmarks can audit peak storage and loop times

_records: dict = {"allocations": None, "stage_times": None}


@contextmanager
def _recording(kind: str):
    prev = _records[kind]
    _records[kind] = log = []
    try:
        yield log
    finally:
        _records[kind] = prev


def track_metric_allocations():
    """Collect the forward-metric store of each siso_decode call in the context.

    Yields a list of the stores as allocated, (stages, 7) + batch float64
    arrays (see the module docstring).  Their nbytes add up to the peak
    stage-metric storage of a decode: the backward recursion keeps only
    8-slot registers.
    """
    return _recording("allocations")


class StageTimes(NamedTuple):   # a frozen dataclass costs 0.3 ms of import
    """Wall seconds of one siso_decode call's three recursion loops.

    forward_s       the forward recursion, with its metric store
    acquisition_s   the tail boundary and the windows' acquisition steps
    backward_llr_s  the fused backward recursion and LLR output
    """
    forward_s: float
    acquisition_s: float
    backward_llr_s: float


def track_stage_times():
    """Collect a StageTimes for every siso_decode call inside the context.

    Yields a list with one entry per call, in call order.  Outside the
    context a call reads the clock three times and checks once whether
    to record; nothing is done per stage.
    """
    return _recording("stage_times")


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecoderConfig:
    """Everything the decoder needs to know about one configuration.

    qpp may be omitted for component-level (single SISO) use; the turbo
    entry points require it.  quantization, when set to (bits, frac_bits),
    applies saturating fixed-point rounding (quantize_llrs), approximating
    a fixed-point decoder's LLR memories: to the systematic and tail LLRs
    once on entry, to each parity stream at each call of its decoder,
    and to each extrinsic stream as it is exchanged.  window_len=None
    decodes each block as a single window, which is the exact-reference
    schedule.
    """
    mode: MaxStarMode = MaxStarMode.MAX_LOG
    iterations: int = 8
    qpp: QppParams | None = None
    window_len: int | None = None
    acquisition_len: int = 32
    quantization: tuple[int, int] | None = None

    def __post_init__(self):
        # refused here, not deep inside a decode
        _checks.instance("mode", self.mode, MaxStarMode)
        _checks.instance("qpp", self.qpp, (QppParams, type(None)), "QppParams or None")
        for name, lo in (("iterations", 1), ("window_len", 1), ("acquisition_len", 0)):
            value = getattr(self, name)
            if value is not None or name != "window_len":   # None: no windows
                object.__setattr__(self, name, _checks.integer(name, value, lo))
        if self.quantization is not None:
            q = _checks.instance("quantization", self.quantization, (tuple, list),
                                 "tuple or list (bits, frac_bits)")
            if len(q) != 2:
                raise ValueError(f"quantization must be a pair (bits, frac_bits), got {q!r}")
            quantize_llrs(0.0, *q)   # checks the pair
            object.__setattr__(self, "quantization", tuple(map(int, q)))


@dataclass(frozen=True)
class SisoInput:
    """One constituent decoder's inputs.

    lu   (..., n)  systematic-plus-a-priori LLRs; multiplies the u label.
                   The first coded stream of a systematic code is the
                   information bit itself, so its channel LLRs are part
                   of lu.
    lc2  (..., n)  second-coded-stream LLRs: the parity stream.
    tail_lu, tail_lc2  (..., 3)  the same two streams for the three
                   termination stages.  All-zero tails decode a block
                   without termination: from state 0 they leave +0.0 in
                   all eight states, the uniform start.
    """
    lu: np.ndarray
    lc2: np.ndarray
    tail_lu: np.ndarray
    tail_lc2: np.ndarray

    def __post_init__(self):
        names = ("lu", "lc2", "tail_lu", "tail_lc2")
        lu, lc2, tail_lu, tail_lc2 = streams = _checks.float_arrays(
            *(getattr(self, name) for name in names))
        if lu.shape != lc2.shape:
            raise ValueError(f"input streams disagree in shape: {lu.shape}, {lc2.shape}")
        if lu.ndim == 0 or lu.shape[-1] == 0:
            raise ValueError(f"a block needs at least one stage, got shape {lu.shape}")
        if not tail_lu.shape == tail_lc2.shape == lu.shape[:-1] + (3,):
            raise ValueError("tail LLRs must have shape (..., 3) matching the block batch")
        for name, a in zip(names, streams):
            object.__setattr__(self, name, _checks.bounded("input LLRs", a, _LLR_LIMIT))

    @property
    def n(self) -> int:
        return self.lu.shape[-1]

    @property
    def batch_shape(self) -> tuple:
        return self.lu.shape[:-1]


@dataclass
class SisoResult:
    llr_out: np.ndarray       # (..., n) a-posteriori LLRs of the info bits
    extrinsic: np.ndarray     # (..., n) llr_out - lu
    ops: OpCounts


def _tail_boundary(inp: SisoInput, mode):
    """Backward metrics (8, blocks) at the end of the information section.

    Runs the recursion from state 0 at the end of the tail through the
    three tail stages.
    """
    blocks = int(np.prod(inp.batch_shape, dtype=np.int64))
    beta = np.full((8, blocks), METRIC_NEG_INF)
    beta[0] = 0.0
    tg = compute_branch_metrics(0.5 * inp.tail_lu.reshape(blocks, 3).T,
                                0.5 * inp.tail_lc2.reshape(blocks, 3).T, axis=1)
    for k in range(2, -1, -1):
        beta = _kernel(beta, tg[k], _BWD, mode)
    return beta


def siso_decode(inp: SisoInput, config) -> SisoResult:
    """Decode one constituent code block (or a batch of them).

    The forward recursion runs once over the whole block.  The backward
    recursion and the LLR output run on lanes, one per window: lane w
    covers stages [w*L, w*L + L), L = window_len (n without windows), and
    all lanes step together, first over A acquisition steps (A is the
    longest acquisition any lane has), then over L window steps.  Each
    step applies the same stage step to each lane as a one-window-at-a-
    time decode would, on the same values, so the output is identical
    for every kernel; the Python loop runs L + A times instead of
    n + sum(acquisition).  A lane idles while its stage lies beyond n.

    Parameters
    ----------
    inp : SisoInput
    config : DecoderConfig
        Only mode, window_len and acquisition_len are read.

    Returns
    -------
    SisoResult
        llr_out[k] is the reduction over the eight u=+1 edges minus the
        reduction over the eight u=-1 edges of alpha + gamma + beta at
        stage k; extrinsic = llr_out - lu.
    """
    _checks.instance("inp", inp, SisoInput)
    mode = _checks.instance("config", config, DecoderConfig).mode
    n = inp.n
    batch = inp.batch_shape
    blocks = int(np.prod(batch, dtype=np.int64))
    L = n if config.window_len is None else min(config.window_len, n)
    lanes = -(-n // L)          # windows of L stages, the last maybe shorter
    span = lanes * L            # n plus fewer than L padding stages
    rows = blocks * lanes
    acq = min(config.acquisition_len, n)   # no acquisition spans more than the block
    # acquisition stages of each lane: up to acq, cut off by the tail
    lane_acq = [min(acq, max(0, n - (w + 1) * L)) for w in range(lanes)]
    A = max(lane_acq, default=0)

    # The forward store comes first, and its buffer holds the half-scale
    # inputs (see module docstring) stage-major and zero-padded to span
    # until the forward pass overwrites it.  Halving the inputs is exact.
    store = np.empty((span, 7) + batch)
    if _records["allocations"] is not None:
        _records["allocations"].append(store)
    stored = store.reshape(L, lanes, 7, blocks)
    halves = store.reshape(-1)[:2 * blocks * span].reshape(2, blocks, span)
    halves[:, :, n:] = 0.0
    np.multiply(inp.lu.reshape(blocks, n), 0.5, out=halves[0, :, :n])
    np.multiply(inp.lc2.reshape(blocks, n), 0.5, out=halves[1, :, :n])
    halves = halves.reshape(2, blocks, lanes, L).transpose(0, 3, 2, 1)   # 2 x (L, lanes, blocks)
    gam = compute_branch_metrics(halves[0], halves[1], axis=1)  # (L, 2, lanes, blocks)
    del halves   # a view: it would keep the store's buffer past `del store`

    # Forward recursion.  Windows hand alpha across their shared
    # boundaries, so this is one continuous pass whatever the schedule.
    t_forward = perf_counter()
    alpha = np.full((8, blocks), METRIC_NEG_INF)
    alpha[0] = 0.0
    for k in range(n):
        w, j = divmod(k, L)
        stored[j, w] = alpha[1:]
        alpha = _kernel(alpha, gam[j, :, w], _FWD, mode)

    # Lane rows: row w*blocks + b is lane w of block b, so stage j of
    # every lane is slab [j], and lanes 0..v-1 are its first v*blocks
    # rows.  Reshaping the contiguous arrays copies nothing.
    gam_rows = gam.reshape(L, 2, rows)
    alpha_col = np.zeros((8, rows))   # row 0 stays 0: the normalized state 0
    alpha_lanes = alpha_col[1:].reshape(7, lanes, blocks)

    def backward_step(beta, j):
        # stage w*L + j of each lane; the first `live` rows (the lanes
        # that have it in the block) step, reading lane w + d's slab.  A
        # window step (d == 0) first forms the live lanes' stage-j LLRs
        # from the step's own gathers, while beta still holds stage j + 1,
        # and writes them into row 0 of slab j, which no later step reads:
        # acquisition steps run first, and window steps in descending j.
        d, c = divmod(j, L)
        live = -(-(n - j) // L) * blocks
        first = d * blocks
        cand = beta[:, :live].take(_BWD[0], axis=0)                   # (2, 8, live)
        g = gam_rows[c, :, first:first + live].take(_BWD[1], axis=0)  # (8, live)
        if d == 0:
            alpha_lanes[...] = stored[j].transpose(1, 0, 2)
            a = alpha_col[:, :live]
            vals = np.empty((2, 8, live))   # (alpha +- g) + beta on each edge
            np.add(a, g, out=vals[0])
            np.subtract(a, g, out=vals[1])
            vals += cand
            vals = vals.reshape(16, live).take(_LLR_EDGES, axis=0)
            np.subtract(max_star_reduce(vals[:8], mode), max_star_reduce(vals[8:], mode),
                        out=gam_rows[j, 0, :live])
        out = _butterfly(cand, g, mode)
        if live == rows:
            return out
        beta[:, :live] = out
        return beta

    # A lane whose acquisition reaches the tail (always so for the last
    # lane) starts from the tail boundary, the others uniform.
    t_acquisition = perf_counter()
    tail_beta = _tail_boundary(inp, mode)
    reaches_tail = np.arange(1, lanes + 1)[:, None] * L + acq >= n
    beta = np.where(reaches_tail, tail_beta[:, None], 0.0).reshape(8, rows)
    for j in range(L + A - 1, L - 1, -1):
        beta = backward_step(beta, j)

    # Fused backward/LLR loop: each step forms the stage-j LLRs, then
    # retires beta's stage-(j+1) column.
    t_backward = perf_counter()
    for j in range(L - 1, -1, -1):
        beta = backward_step(beta, j)
    if _records["stage_times"] is not None:
        _records["stage_times"].append(StageTimes(
            forward_s=t_acquisition - t_forward,
            acquisition_s=t_backward - t_acquisition,
            backward_llr_s=perf_counter() - t_backward))

    # back to block-major in one copy, with the store already freed and
    # the table freed right after: a reshape alone would return a view of
    # the table when there is one lane.  The padding lanes' LLR rows are
    # never written and are cut off.
    del store, stored
    llr = np.ascontiguousarray(gam[:, 0].transpose(2, 1, 0)).reshape(
        blocks, span)[:, :n].reshape(batch + (n,))
    del gam, gam_rows
    extrinsic = llr - inp.lu

    stages = 2 * n + sum(lane_acq)   # butterfly stages; costs: see OpCounts
    ops = OpCounts(
        adds=(2 * n + 16 * stages + 32 * n) * blocks,
        subs=(2 * n + 7 * stages + 2 * n) * blocks,
        max_star_pairs=8 * stages * blocks,
        llr_reduces=2 * n * blocks,
        stream_reads=3 * (n + 3) * blocks,
        stream_writes=2 * n * blocks,
    )
    if mode is MaxStarMode.LINEAR_LOG:
        ops.muls = ops.max_star_pairs + 7 * ops.llr_reduces

    return SisoResult(llr_out=llr, extrinsic=extrinsic, ops=ops)


def quantize_llrs(llrs, bits: int, frac_bits: int) -> np.ndarray:
    """Saturating round-to-nearest onto a two's-complement grid.

    The grid step is 2**-frac_bits; representable values span
    [-2**(bits-1), 2**(bits-1) - 1] grid steps.  Output stays on the
    real LLR scale.  Ties round to even (IEEE default).
    """
    bits = _checks.integer("bits", bits, 2, 16)
    frac_bits = _checks.integer("frac_bits", frac_bits, 0, bits - 1)
    step = 2.0 ** -frac_bits
    lo = -(2 ** (bits - 1)) * step
    hi = (2 ** (bits - 1) - 1) * step
    # clipped first, so no finite LLR overflows in the divide: lo and hi
    # are whole steps and step is a power of two, so the bits are the
    # same.  The clip allocates the one new array; the rest runs in it.
    [llrs] = _checks.float_arrays(llrs)
    out = np.clip(llrs, lo, hi, out=np.empty_like(llrs))
    out /= step
    np.round(out, out=out)
    out *= step
    return out if out.ndim else out[()]
