"""The max* operator and its suboptimal variants.

max*(x, y) = ln(e^x + e^y) = max(x, y) + ln(1 + e^-|x-y|) is the exact
(Jacobian) form.  The decoder can swap the correction term for cheaper
approximations, selected by MaxStarMode:

  MAX_LOG       no correction, plain max
  LINEAR_LOG    correction max(0, LINEAR_A * (|x-y| - LINEAR_T))
  CONSTANT_LOG  correction CONSTANT_C when |x-y| <= CONSTANT_T, else 0
  LOG_MAP       exact correction ln(1 + e^-|x-y|)

The correction constants are fixed: CONSTANT_C, CONSTANT_T = 0.5, 1.5
and LINEAR_A, LINEAR_T = -0.24904, 2.5068, the usual literature
constants; LINEAR_A and LINEAR_T are those of Valenti & Sun (2001).  No
clipped-linear correction can track the exact term ln(1 + e^-d) better
than ~0.0716 worst-case on d in [0, 10] (the family's minimax error).
These constants are not chosen for that: their worst-case error is
0.0784, at d = LINEAR_T.

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

max_star takes its temporaries in place: on arrays a call allocates
the result and one scratch array, whatever the mode, and writes neither
input.  The scratch is fresh and contiguous, so every element sees the
same rounded operations whatever the layout of the inputs; 0-d inputs
run the same steps on one element and give a numpy scalar.  The decoder
calls it on the two (8, rows) halves of a butterfly's candidates: at
4032 rows a linear pair took 233 -> 126 us against one temporary per
operation, at 42 rows 7.0 -> 3.4 us.

All variants are symmetric and shift-equivariant:
max*(x+d, y+d) = max*(x,y) + d.  Shift equivariance is what lets the
decoder renormalise state metrics every stage without changing any LLR.

Unreachable trellis states are marked with a large negative sentinel
(METRIC_NEG_INF) rather than -inf so that sums never produce NaN.  No
special-casing is needed here: when one argument is at the sentinel the
difference |x-y| is astronomical, every correction term evaluates to
exactly 0.0, and the other argument is returned unchanged.
The sentinel is -1e300: SisoInput admits |LLR| <= 1e250, whose metrics
(sums of a few times n of them) stay far above it, so no unreachable path
ever wins; twice it, an edge between two unreachable states, stays finite.
"""

import enum

import numpy as np

from . import _checks

# Sentinel standing in for -inf on the metric scale.
METRIC_NEG_INF = -1.0e300
# The fixed correction constants (see the module docstring).
CONSTANT_C, CONSTANT_T = 0.5, 1.5
LINEAR_A, LINEAR_T = -0.24904, 2.5068
_F64 = np.dtype(np.float64)


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


def max_star(x, y, mode: MaxStarMode = MaxStarMode.LOG_MAP):
    """Elementwise max* of two finite metrics, real scalars or broadcastable
    arrays read by _checks.float_arrays; an infinite one gives NaN.  Writes
    neither input (see the module docstring)."""
    if mode.__class__ is not MaxStarMode:   # an identity test: no call for a valid mode
        _checks.instance("mode", mode, MaxStarMode)
    if not (x.__class__ is y.__class__ is np.ndarray and x.dtype is y.dtype is _F64):
        x, y = _checks.float_arrays(x, y)   # float64 arrays come back as they are
    m = np.maximum(x, y)
    if mode is MaxStarMode.MAX_LOG:
        return m
    if m.ndim == 0:   # numpy scalars take no out=; same steps on one element
        return max_star(x[None], y[None], mode)[0]
    if mode is MaxStarMode.LOG_MAP:
        t = np.minimum(x, y)
        np.subtract(t, m, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
    else:
        t = np.subtract(x, y)
        np.abs(t, out=t)
        if mode is MaxStarMode.CONSTANT_LOG:
            # 1.0 * c or 0.0 * c: c where |x-y| <= T, else 0.0
            np.less_equal(t, CONSTANT_T, out=t)
            np.multiply(t, CONSTANT_C, out=t)
        else:   # LINEAR_LOG
            np.subtract(t, LINEAR_T, out=t)
            np.multiply(LINEAR_A, t, out=t)
            np.maximum(0.0, t, out=t)
    return np.add(m, t, out=m)


def max_star_reduce(values, mode: MaxStarMode = MaxStarMode.LOG_MAP):
    """max* of finite metrics (read as by max_star) along axis 0, which must not be empty.

    For MAX_LOG the fold equals the plain maximum for any fold order, so
    it is computed with np.maximum.reduce directly, the ufunc reduce that
    np.max wraps, without the wrapper's Python cost (about 40% of a
    call at (8, 512)).  LOG_MAP is associative too and is computed as a
    log-sum-exp, m + ln(sum(e^(v - m))) with m the maximum (again
    np.maximum.reduce): one vectorised exp per value and one log per
    reduction, where a left fold of np.logaddexp would cost a scalar libm
    exp and log1p per value.  The sum adds halves of the axis in an order fixed
    by its length alone, never np.sum, whose rounding follows the shape
    of the whole array: a row must reduce to the same bits alone as
    inside a batch.  The approximate modes are not associative, hence
    the explicit left-to-right fold of max_star.
    """
    if mode.__class__ is not MaxStarMode:   # as in max_star
        _checks.instance("mode", mode, MaxStarMode)
    if values.__class__ is not np.ndarray or values.dtype is not _F64:   # as x in max_star
        [values] = _checks.float_arrays(values)
    if values.ndim == 0 or len(values) == 0:
        raise ValueError("max_star_reduce needs a non-empty axis to reduce")
    if mode is MaxStarMode.MAX_LOG:
        return np.maximum.reduce(values)   # a ufunc reduce folds axis 0
    if mode is MaxStarMode.LOG_MAP:
        m = np.maximum.reduce(values)
        # one scratch array of contiguous, disjoint slabs: the in-place adds copy no overlap
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
        acc = max_star(acc, v, mode)
    return acc
