"""Soft-input soft-output decoding of one constituent code.

The decoder is the usual forward/backward recursion over the 8-state
trellis with a selectable max* kernel.  The implementation follows a few
cost-saving conventions throughout:

* Branch metrics.  Each trellis stage has 16 edge metrics but only four
  distinct values g1, g2, -g2, -g1 (see trellis module); only g1 and g2
  take arithmetic, the other two are their negations.

* Normalization.  After every stage the state-0 metric is subtracted
  from all eight.  Because every max* variant is shift-equivariant this
  changes no LLR, it only keeps metrics bounded -- and state 0 becomes
  implicitly zero, so only seven values per stage are stored.

* Storage.  Only the forward metrics are kept (a MetricMatrix of 7*n
  values per block; with windows, n is rounded up to whole windows, so
  a block that no window length divides stores fewer than 7*window_len
  padding values).  Backward metrics live in one 8-slot register per
  lane (window): the backward recursion and the LLR output are fused
  into one loop, so each backward column is consumed the moment it is
  produced.  The lanes are rows of one array.

  Every per-stage array -- branch metrics, forward metrics and
  LLR output -- is stage-major: stage k = w*L + j (lane w, window
  length L) of block b is row b of slab j*lanes + w, and the lane rows
  are ordered (w, b).  A forward step then reads and writes one
  contiguous slab of blocks rows, and a lane step one of lanes*blocks
  rows, where a block-major (blocks, n, .) layout would read a column
  whose rows lie n*32 bytes apart.  Inputs are transposed into the
  layout once and the LLRs back once per call.

  Within a slab the registers are state-major: alpha and beta are
  (8, rows), the LLR edge values (16, rows) and a stage's branch
  metrics (4, rows), from a (L, 4, lanes, blocks) table.  Each gather
  of the wiring tables then copies whole rows, the two candidates of
  a butterfly are contiguous (8, rows) halves, and each LLR fold
  reduces a contiguous (8, rows) half over axis 0.  Only the forward
  store keeps the state axis last, (stages,) + batch + (7,): it is
  written as alpha[1:].T and read back transposed.

* Boundaries.  The forward recursion starts from the known state 0.  The
  backward recursion starts from state 0 at the end of the tail section
  and consumes the three tail-stage LLRs to reach the end of the
  information section.  In sliding-window mode each lane but the last
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

from .maxstar import METRIC_NEG_INF, MaxStarMode, max_star, max_star_reduce
from .trellis import lte_trellis

_TRELLIS = lte_trellis()
# (source states, branch-metric indices) wiring of each recursion
# direction, (2, 8): row i holds each output state's i-th incoming edge
_FWD = (_TRELLIS.fwd_prev.T.copy(), _TRELLIS.fwd_gamma_idx.T.copy())
_BWD = (_TRELLIS.bwd_next.T.copy(), _TRELLIS.bwd_gamma_idx.T.copy())
# The 16 edges, the eight u=0 edges first (stable: each set keeps its
# order), so each LLR fold reads a view of one half, not a gathered copy.
_EDGE_START, _EDGE_END, _EDGE_GAMMA = (
    a[np.argsort(_TRELLIS.edge_info, kind="stable")]
    for a in (_TRELLIS.edge_start, _TRELLIS.edge_end, _TRELLIS.edge_gamma_idx))


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
      costs 16 adds (8 states x 2 edges) and, normalized, 7 subs.
    * Each information stage costs 2 adds + 2 subs of branch metrics
      (over the systematic, a-priori and parity streams), 32 adds of
      alpha + gamma + beta on 16 edges and 2 subs (LLR, extrinsic).
    * llr_reduces counts 8-way output reductions, two per stage (one per
      bit hypothesis); the pairwise max* steps inside a reduction are
      part of the reduction, not max_star_pairs.
    * muls counts correction-term multiplies: one per max* pair and
      seven per reduction in LINEAR_LOG mode, zero in the other modes.
      One-time setup work (e.g. interleaver generation) is not counted.
    * stream_reads is 3 per trellis stage (the same three streams,
      tail stages included); stream_writes is 2 per information stage
      (output LLR and extrinsic).
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
    """Branch-metric table [g1, g2, -g2, -g1] of one stage or a whole block.

    g1 = lu + lc2 and g2 = lc2 - lu; the table's 4-entry axis is `axis`
    of the result (last by default), indexed by the trellis wiring
    tables (fwd_gamma_idx, bwd_gamma_idx, edge_gamma_idx).
    """
    lu = np.asarray(lu, dtype=np.float64)
    lc2 = np.asarray(lc2, dtype=np.float64)
    shape = np.broadcast_shapes(lu.shape, lc2.shape)
    axis %= len(shape) + 1
    # written in place: no block-sized temporaries besides the table
    table = np.empty(shape[:axis] + (4,) + shape[axis:])
    g = np.moveaxis(table, axis, 0)   # g[i, ...] is an array, even 0-d
    np.add(lu, lc2, out=g[0, ...])
    np.subtract(lc2, lu, out=g[1, ...])
    np.negative(g[1, ...], out=g[2, ...])
    np.negative(g[0, ...], out=g[3, ...])
    return table


def _kernel(metrics, gamma_table, wiring, mode, params, normalize_metrics):
    """The stage step all recursions share: 8 two-way add-max* updates.

    metrics (8, ...) and gamma_table (4, ...) in, next metrics (8, ...)
    out, state-major: each gather copies whole rows, and the two
    candidate halves are contiguous.  wiring is _FWD or _BWD: per
    incoming edge and output state, the source state and its
    branch-metric index.  With normalize_metrics the state-0 metric is
    subtracted from all eight.
    """
    state_idx, gamma_idx = wiring
    cand = metrics.take(state_idx, axis=0)   # a third of fancy indexing's call cost
    cand += gamma_table.take(gamma_idx, axis=0)
    out = max_star(cand[0], cand[1], mode, params)
    return out - out[0] if normalize_metrics else out


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
    """Collect every MetricMatrix allocated inside the context.

    Yields a list of MetricMatrix instances; their stored_values_per_block
    add up to the peak stage-metric storage of a decode (the backward
    recursion allocates no per-stage storage, only 8-slot registers).
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


class MetricMatrix:
    """Normalized forward metrics: seven values per stage, state 0 omitted.

    data is (stages,) + batch_shape + (7,), stage-major (see the module
    docstring): slab j*lanes + w holds stage w*L + j of every block, so
    each step of the recursions reads or writes one contiguous slab; an
    unwindowed block's slabs are simply its stages in order.  The state
    axis stays last: a step writes the (8, rows) register as
    alpha[1:].T and the backward pass reads it back transposed.  Holds the
    block's stages rounded up to whole windows; the padding stages
    (fewer than one window) count as stored values.
    """

    def __init__(self, batch_shape: tuple, stages: int):
        self.data = np.empty((stages,) + batch_shape + (7,))
        if _records["allocations"] is not None:
            _records["allocations"].append(self)

    @property
    def stored_values_per_block(self) -> int:
        return 7 * self.data.shape[0]


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SisoInput:
    """One constituent decoder's inputs.

    lu   (..., n)  systematic-plus-a-priori LLRs; multiplies the u label.
                   The first coded stream of a systematic code is the
                   information bit itself (c1 == u on every edge), so its
                   channel LLRs are part of lu.
    lc2  (..., n)  second-coded-stream LLRs: the parity stream.
    tail_lu, tail_lc2  (..., 3)  the same two streams for the termination
                   stages.  Give both or neither; leave both None for a
                   block without termination: the backward recursion
                   then starts uniform instead of pinned to state 0.
    """
    lu: np.ndarray
    lc2: np.ndarray
    tail_lu: np.ndarray | None = None
    tail_lc2: np.ndarray | None = None

    def __post_init__(self):
        lu = np.asarray(self.lu, dtype=np.float64)
        lc2 = np.asarray(self.lc2, dtype=np.float64)
        if lu.shape != lc2.shape:
            raise ValueError(f"input streams disagree in shape: {lu.shape}, {lc2.shape}")
        if lu.ndim == 0 or lu.shape[-1] == 0:
            raise ValueError(f"a block needs at least one stage, got shape {lu.shape}")
        if (self.tail_lu is None) != (self.tail_lc2 is None):
            raise ValueError("a tail needs both tail_lu and tail_lc2, or neither")
        to_check = [lu, lc2]
        object.__setattr__(self, "lu", lu)
        object.__setattr__(self, "lc2", lc2)
        if self.tail_lu is not None:
            tail_shape = lu.shape[:-1] + (3,)
            tail_lu = np.asarray(self.tail_lu, dtype=np.float64)
            tail_lc2 = np.asarray(self.tail_lc2, dtype=np.float64)
            if not (tail_lu.shape == tail_lc2.shape == tail_shape):
                raise ValueError("tail LLRs must have shape (..., 3) matching the block batch")
            to_check += [tail_lu, tail_lc2]
            object.__setattr__(self, "tail_lu", tail_lu)
            object.__setattr__(self, "tail_lc2", tail_lc2)
        for a in to_check:
            if not np.all(np.isfinite(a)):
                raise ValueError("input LLRs must be finite")

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


def _tail_boundary(inp: SisoInput, mode, params, normalize_metrics):
    """Backward metrics (8, blocks) at the end of the information section.

    Runs the recursion from state 0 at the end of the tail through the
    three tail stages; with no tail information the boundary is uniform.
    """
    blocks = int(np.prod(inp.batch_shape, dtype=np.int64))
    if inp.tail_lu is None:
        return np.zeros((8, blocks))
    beta = np.full((8, blocks), METRIC_NEG_INF)
    beta[0] = 0.0
    tg = compute_branch_metrics(0.5 * inp.tail_lu.reshape(blocks, 3).T,
                                0.5 * inp.tail_lc2.reshape(blocks, 3).T, axis=1)
    for k in range(2, -1, -1):
        beta = _kernel(beta, tg[k], _BWD, mode, params, normalize_metrics)
    return beta


def _pad_stages(x, span: int):
    """x (..., n) with zero stages appended up to span; x itself if none."""
    pad = span - x.shape[-1]
    return x if pad == 0 else np.concatenate(
        [x, np.zeros(x.shape[:-1] + (pad,))], axis=-1)


def siso_decode(inp: SisoInput, config, *, normalize_metrics: bool = True) -> SisoResult:
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
        Only mode, correction, window_len and acquisition_len are read.
    normalize_metrics : bool
        Debug toggle.  When False the per-stage state-0 subtraction is
        skipped; output LLRs are unchanged up to max* shift equivariance
        (bit-exact for MAX_LOG) but raw metrics grow with block length
        and an extra length-n vector is needed to remember the state-0
        metric -- exactly the storage the normalization trick avoids.

    Returns
    -------
    SisoResult
        llr_out[k] is the reduction over the eight u=+1 edges minus the
        reduction over the eight u=-1 edges of alpha + gamma + beta at
        stage k; extrinsic = llr_out - lu.
    """
    mode, params = config.mode, config.correction
    n = inp.n
    batch = inp.batch_shape
    blocks = int(np.prod(batch, dtype=np.int64))
    lanes = config.num_windows(n)
    L = n if config.window_len is None else min(config.window_len, n)
    span = lanes * L            # n plus fewer than L padding stages
    rows = blocks * lanes
    acq = config.acquisition_len
    # acquisition stages of each lane: up to acq, cut off by the tail
    lane_acq = [min(acq, max(0, n - (w + 1) * L)) for w in range(lanes)]
    A = max(lane_acq, default=0)

    def stage_major(x):
        """x batch + (n,) as a (L, lanes, blocks) view, zero-padded."""
        return _pad_stages(x.reshape(blocks, n), span).reshape(
            blocks, lanes, L).transpose(2, 1, 0)

    # half-scale metrics (see module docstring); halving the inputs is
    # exact and peaks lower in memory than halving the table.  The
    # halved inputs stay expression temporaries, freed before the loops.
    gam = compute_branch_metrics(stage_major(0.5 * inp.lu),
                                 stage_major(0.5 * inp.lc2), axis=1)  # (L, 4, lanes, blocks)

    # Forward recursion.  Windows hand alpha across their shared
    # boundaries, so this is one continuous pass whatever the schedule.
    t_forward = perf_counter()
    store = MetricMatrix(batch, span)
    stored = store.data.reshape(L, lanes, blocks, 7)
    stored[n - (lanes - 1) * L:, -1] = 0.0     # the last lane's padding stages
    alpha0 = None if normalize_metrics else np.zeros((L, lanes, blocks))
    alpha = np.full((8, blocks), METRIC_NEG_INF)
    alpha[0] = 0.0
    for k in range(n):
        w, j = divmod(k, L)
        stored[j, w] = alpha[1:].T
        if alpha0 is not None:
            alpha0[j, w] = alpha[0]
        alpha = _kernel(alpha, gam[j, :, w], _FWD, mode, params, normalize_metrics)

    # Lane rows: row w*blocks + b is lane w of block b, so stage j of
    # every lane is slab [j], and lanes 0..v-1 are its first v*blocks
    # rows.  Reshaping the contiguous arrays copies nothing.
    gam_rows = gam.reshape(L, 4, rows)
    store_rows = stored.reshape(L, rows, 7)
    alpha0_rows = None if alpha0 is None else alpha0.reshape(L, rows)
    llr = np.empty((L, rows))

    def backward_step(beta, j):
        # stage w*L + j of each lane; the first `live` rows (the lanes
        # that have it in the block) step, reading lane w + d's slab
        d, c = divmod(j, L)
        live = -(-(n - j) // L) * blocks
        if live == rows:
            return _kernel(beta, gam_rows[c], _BWD, mode, params, normalize_metrics)
        first = d * blocks
        beta[:, :live] = _kernel(beta[:, :live], gam_rows[c, :, first:first + live],
                                 _BWD, mode, params, normalize_metrics)
        return beta

    # A lane whose acquisition reaches the tail (always so for the last
    # lane) starts from the tail boundary, the others uniform.
    t_acquisition = perf_counter()
    tail_beta = _tail_boundary(inp, mode, params, normalize_metrics)
    reaches_tail = np.arange(1, lanes + 1)[:, None] * L + acq >= n
    beta = np.where(reaches_tail, tail_beta[:, None], 0.0).reshape(8, rows)
    for j in range(L + A - 1, L - 1, -1):
        beta = backward_step(beta, j)

    t_backward = perf_counter()
    alpha_col = np.zeros((8, rows))
    # Fused backward/LLR loop: beta holds the stage-(j+1) column when the
    # stage-j LLR is formed, then one more stage step retires it.
    for j in range(L - 1, -1, -1):
        if alpha0_rows is not None:
            alpha_col[0] = alpha0_rows[j]
        alpha_col[1:] = store_rows[j].T
        vals = alpha_col.take(_EDGE_START, axis=0)
        vals += gam_rows[j].take(_EDGE_GAMMA, axis=0)
        vals += beta.take(_EDGE_END, axis=0)
        llr[j] = (max_star_reduce(vals[:8], mode, params, axis=0)
                  - max_star_reduce(vals[8:], mode, params, axis=0))
        beta = backward_step(beta, j)
    if _records["stage_times"] is not None:
        _records["stage_times"].append(StageTimes(
            forward_s=t_acquisition - t_forward,
            acquisition_s=t_backward - t_acquisition,
            backward_llr_s=perf_counter() - t_backward))

    # back to block-major, one copy per call
    llr = llr.reshape(L, lanes, blocks).transpose(2, 1, 0).reshape(
        blocks, span)[:, :n].reshape(batch + (n,))
    extrinsic = llr - inp.lu

    stages = 2 * n + sum(lane_acq)   # butterfly stages; costs: see OpCounts
    ops = OpCounts(
        adds=(2 * n + 16 * stages + 32 * n) * blocks,
        subs=(2 * n + (7 * stages if normalize_metrics else 0) + 2 * n) * blocks,
        max_star_pairs=8 * stages * blocks,
        llr_reduces=2 * n * blocks,
        stream_reads=3 * (n + (3 if inp.tail_lu is not None else 0)) * blocks,
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
    if not 2 <= bits <= 16:
        raise ValueError(f"bits must be in [2, 16], got {bits}")
    if not 0 <= frac_bits < bits:
        raise ValueError(f"frac_bits must be in [0, bits), got {frac_bits}")
    step = 2.0 ** -frac_bits
    lo = -(2 ** (bits - 1)) * step
    hi = (2 ** (bits - 1) - 1) * step
    return np.clip(np.round(np.asarray(llrs, dtype=np.float64) / step) * step, lo, hi)
