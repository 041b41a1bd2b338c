"""The max* operator and its suboptimal variants.

max*(x, y) = ln(e^x + e^y) = max(x, y) + ln(1 + e^-|x-y|) is the exact
(Jacobian) form.  The decoder can swap the correction term for cheaper
approximations, selected by MaxStarMode:

  MAX_LOG       no correction, plain max
  LINEAR_LOG    correction max(0, a * (|x-y| - t_lin)), a < 0
  CONSTANT_LOG  correction C when |x-y| <= T, else 0
  LOG_MAP       exact correction ln(1 + e^-|x-y|)

LOG_MAP is computed with numpy's vectorised exp, log1p and log: a pair
as max(x, y) + ln(1 + e^(min(x, y) - max(x, y))), a reduction as a
log-sum-exp (see max_star_reduce).  np.logaddexp computes the same pair
with libm's scalar exp and log1p on every element, nearly three times
slower on the decoder's 2048-value stage steps.  The two round apart in
the last bits, so log-map LLRs match a libm reference within float
error, not bit for bit.  No result here rounds differently with the
shape of the array it is part of (a maximum needs no rounding, and
sums are explicit adds), so a block decodes to the same bits alone as
inside a batch.

All variants are symmetric and shift-equivariant:
max*(x+d, y+d) = max*(x,y) + d.  Shift equivariance is what lets the
decoder renormalise state metrics every stage without changing any LLR.

Unreachable trellis states are marked with a large negative sentinel
(METRIC_NEG_INF) rather than -inf so that sums never produce NaN.  No
special-casing is needed here: when one argument is at the sentinel the
difference |x-y| is astronomical, every correction term evaluates to
exactly 0.0, and the other argument is returned unchanged.
"""

import enum
from dataclasses import dataclass

import numpy as np

# Sentinel standing in for -inf on the metric scale.  Anything at or below
# SENTINEL_CEILING is treated as unreachable by validity checks.
METRIC_NEG_INF = -1.0e15
SENTINEL_CEILING = -1.0e12


class MaxStarMode(enum.Enum):
    """The four selectable decoding kernels (fastest to slowest)."""
    MAX_LOG = "max-log"
    LINEAR_LOG = "linear"
    CONSTANT_LOG = "constant"
    LOG_MAP = "log-map"

    @classmethod
    def from_name(cls, name: str) -> "MaxStarMode":
        for mode in cls:
            if mode.value == name:
                return mode
        raise ValueError(f"unknown algorithm {name!r}; expected one of "
                         f"{[m.value for m in cls]}")


@dataclass(frozen=True)
class CorrectionParams:
    """Constants of the approximate correction terms.

    c, t        constant-log-MAP: add c when |x-y| <= t
    a, t_lin    linear-log-MAP: add max(0, a * (|x-y| - t_lin))

    The defaults are the usual literature constants; a and t_lin are
    those of Valenti & Sun (2001).  No clipped-linear correction can
    track the exact term ln(1 + e^-d) better than ~0.0716 worst-case on
    d in [0, 10] (the family's minimax error).  The defaults are not
    chosen for that: their worst-case error is 0.0784, at d = t_lin.
    """
    c: float = 0.5
    t: float = 1.5
    a: float = -0.24904
    t_lin: float = 2.5068

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("constant correction c must be >= 0")
        if self.t <= 0:
            raise ValueError("constant threshold t must be > 0")
        if self.a >= 0:
            raise ValueError("linear slope a must be < 0")
        if self.t_lin <= 0:
            raise ValueError("linear threshold t_lin must be > 0")


DEFAULT_CORRECTION = CorrectionParams()


def max_star(x, y, mode: MaxStarMode = MaxStarMode.LOG_MAP,
             params: CorrectionParams = DEFAULT_CORRECTION):
    """Elementwise max* of two metrics (scalars or broadcastable arrays)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = np.maximum(x, y)
    if mode is MaxStarMode.MAX_LOG:
        return m
    if mode is MaxStarMode.LOG_MAP:
        return m + np.log1p(np.exp(np.minimum(x, y) - m))
    diff = np.abs(x - y)
    if mode is MaxStarMode.CONSTANT_LOG:
        return m + np.where(diff <= params.t, params.c, 0.0)
    return m + np.maximum(0.0, params.a * (diff - params.t_lin))


def max_star_reduce(values, mode: MaxStarMode = MaxStarMode.LOG_MAP,
                    params: CorrectionParams = DEFAULT_CORRECTION, axis: int = -1):
    """max* of all values along an axis.

    For MAX_LOG the fold equals the plain maximum for any fold order, so
    it is computed with np.max directly.  LOG_MAP is associative too and
    is computed as a log-sum-exp, m + ln(sum(e^(v - m))) with m the
    maximum: one vectorised exp per value and one log per reduction,
    where a left fold of np.logaddexp would cost a scalar libm exp and
    log1p per value.  The sum adds halves of the axis in an order fixed
    by its length alone, never np.sum, whose rounding follows the shape
    of the whole array: a row must reduce to the same bits alone as
    inside a batch.  The approximate modes are not associative, hence
    the explicit left-to-right fold of max_star.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape == () or values.shape[axis] == 0:
        raise ValueError("max_star_reduce needs a non-empty axis to reduce")
    if mode is MaxStarMode.MAX_LOG:
        return np.max(values, axis=axis)
    values = np.rollaxis(values, axis)   # moveaxis's checks cost 4 us a call
    if mode is MaxStarMode.LOG_MAP:
        m = values.max(axis=0)
        # one scratch array; its slabs terms[i] are contiguous and
        # disjoint, so the in-place adds need no overlap copy
        terms = np.subtract(values, m, order="C")
        np.exp(terms, out=terms)
        k = len(terms)
        while k > 1:
            half = k // 2
            terms[:half] += terms[k - half:k]
            k -= half
        return m + np.log(terms[0])
    acc = values[0]
    for v in values[1:]:
        acc = max_star(acc, v, mode, params)
    return acc
