"""The library's input rules, each stated once.

Every public entry point checks each argument it takes from outside
with one call here.  A check raises TypeError for the wrong kind of
value (a float where an integer belongs, None or text where numbers
belong, an object that is not the record asked for) and ValueError for
a wrong value of the right kind (out of range, beyond float64, NaN, a
bit other than 0 or 1), and nothing else: numpy's OverflowError
becomes ValueError.
"""

import math
import numbers
import operator

import numpy as np

KEY_LIMIT = 2 ** 64   # each Philox key word is a uint64


def integer(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """value as a Python int in [lo, hi] (hi None: unbounded), never truncated."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if lo is not None and not lo <= value <= (math.inf if hi is None else hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {'2**64' if hi == KEY_LIMIT else hi}]"
        raise ValueError(f"{name} must be {span}, got {value}")
    return value


def key_word(name: str, value) -> int:
    """value as a Philox key word, an integer in [0, 2**64)."""
    value = integer(name, value)
    if not 0 <= value < KEY_LIMIT:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    return value


def instance(name: str, value, kind, what: str | None = None):
    """value, if it is a kind (a class or a tuple of classes, named what)."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {what or kind.__name__}, got {value!r}")
    return value


def float_arrays(*operands) -> list[np.ndarray]:
    """The operands, real numbers, as float64 arrays, every kind checked
    before any value.  NaN passes: bounded refuses it where LLRs enter
    the decoder, so quantize_llrs, which runs every half-iteration,
    scans for none.
    """
    arrays = [np.asarray(x) for x in operands]
    for a in arrays:
        # dtype object: ints beyond 64 bits, or values that are no numbers (None)
        if a.dtype.kind not in "biuf" and not (
                a.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in a.flat)):
            raise TypeError(f"values must be real numbers, got dtype {a.dtype}")
    try:
        return [a.astype(np.float64, copy=False) for a in arrays]
    except OverflowError as exc:   # an integer beyond float64
        raise ValueError(f"value out of float64 range: {exc}") from None


def bounded(name: str, a: np.ndarray, limit: float) -> np.ndarray:
    """a, if every |value| is finite and at most limit."""
    # two reductions, no |a| temporary; NaN propagates and fails a compare
    if not (np.maximum.reduce(a, axis=None, initial=-limit) <= limit
            and np.minimum.reduce(a, axis=None, initial=limit) >= -limit):
        raise ValueError(f"{name} must be finite and within +-{limit:g}")
    return a


def positive(name: str, value) -> float:
    """value as a float in (0, inf)."""
    if not hasattr(value, "__float__"):   # float() would parse a string
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:   # an integer beyond float64
        number = math.inf
    if not 0 < number < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return number


def bits(x) -> np.ndarray:
    """x as uint8 0/1 bits, at least one per block; other values are refused, not cast."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise TypeError(f"bits must be real numbers, got dtype {x.dtype}")
    if x.ndim == 0 or x.shape[-1] < 1 or not np.all((x == 0) | (x == 1)):
        raise ValueError("bits must each be 0 or 1, at least one per block")
    return x.astype(np.uint8, copy=False)
