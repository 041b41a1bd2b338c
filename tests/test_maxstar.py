import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lteturbo.maxstar import METRIC_NEG_INF, MaxStarMode, max_star, max_star_reduce

ALL_MODES = list(MaxStarMode)


class TestPointValues:
    def test_max_log_is_plain_max(self):
        assert max_star(1.0, 2.0, MaxStarMode.MAX_LOG) == 2.0

    def test_log_map_equal_arguments(self):
        assert max_star(0.0, 0.0, MaxStarMode.LOG_MAP) == pytest.approx(math.log(2), abs=1e-12)

    def test_constant_mode(self):
        # C = 0.5 within T = 1.5, else nothing
        assert max_star(0.0, 1.0, MaxStarMode.CONSTANT_LOG) == 1.5
        assert max_star(0.0, 2.0, MaxStarMode.CONSTANT_LOG) == 2.0

    def test_linear_mode(self):
        # -0.24904 * (0 - 2.5068) evaluated directly
        assert max_star(0.0, 0.0, MaxStarMode.LINEAR_LOG) == pytest.approx(
            0.624293472, abs=1e-9)

    def test_log_map_matches_closed_form(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(0, 5, (2, 1000))
        got = max_star(x, y, MaxStarMode.LOG_MAP)
        want = np.maximum(x, y) + np.log1p(np.exp(-np.abs(x - y)))
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("mode", ["log-map", "max-log", None, 3])
    @pytest.mark.parametrize("x, y", [(1.0, 2.0), ([1.0, 0.0], [2.0, 0.0])],
                             ids=["scalars", "arrays"])
    def test_rejects_a_mode_that_is_no_max_star_mode(self, mode, x, y):
        # the bare else ran the linear correction: "log-map" gave 2.375
        with pytest.raises(TypeError, match="mode must be a MaxStarMode"):
            max_star(x, y, mode)


class TestProperties:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_symmetry(self, mode):
        rng = np.random.default_rng(1)
        x, y = rng.normal(0, 10, (2, 500))
        assert np.array_equal(max_star(x, y, mode), max_star(y, x, mode))

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_bounded_correction(self, mode):
        # max <= max* <= max + ln 2 (+ eps); with default params every
        # mode's correction peaks at or below ln 2
        rng = np.random.default_rng(2)
        x, y = rng.normal(0, 10, (2, 2000))
        ms = max_star(x, y, mode)
        m = np.maximum(x, y)
        assert (ms >= m).all()
        assert (ms <= m + math.log(2) + 1e-12).all()

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_shift_equivariance(self, mode):
        rng = np.random.default_rng(3)
        # dyadic inputs and shifts; MAX_LOG and CONSTANT corrections are
        # dyadic too, so those modes commute with shifts bit-exactly.
        # LOG_MAP and LINEAR corrections are transcendental: the identity
        # holds in exact arithmetic, here to float addition error.
        x = np.round(rng.normal(0, 8, 500) * 64) / 64
        y = np.round(rng.normal(0, 8, 500) * 64) / 64
        for d in (0.5, -4.0, 1024.0):
            shifted = max_star(x + d, y + d, mode)
            reference = max_star(x, y, mode) + d
            if mode in (MaxStarMode.MAX_LOG, MaxStarMode.CONSTANT_LOG):
                assert np.array_equal(shifted, reference)
            else:
                np.testing.assert_allclose(shifted, reference, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(mode=st.sampled_from(ALL_MODES),
           ints=st.lists(st.integers(-1024, 1024), min_size=1, max_size=8),
           shift=st.integers(-2 ** 14, 2 ** 14))
    def test_shift_equivariance_of_pairs_and_folds(self, mode, ints, shift):
        # on the 2**-6 grid, |x| <= 16 and |d| <= 256: bit for bit where
        # the correction is dyadic, else within float addition error
        x = np.array(ints, dtype=np.float64) / 64
        d = shift / 64
        pairs = (max_star(x + d, x[::-1] + d, mode),
                 max_star(x, x[::-1], mode) + d)
        folds = (max_star_reduce(x + d, mode), max_star_reduce(x, mode) + d)
        for shifted, reference in (pairs, folds):
            if mode in (MaxStarMode.MAX_LOG, MaxStarMode.CONSTANT_LOG):
                assert np.array_equal(shifted, reference)
            else:
                np.testing.assert_allclose(shifted, reference, rtol=0, atol=1e-12)

    def test_max_log_positive_homogeneity(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(0, 5, (2, 500))
        for c in (0.5, 3.7):
            np.testing.assert_allclose(
                max_star(c * x, c * y, MaxStarMode.MAX_LOG),
                c * max_star(x, y, MaxStarMode.MAX_LOG), rtol=1e-15)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_sentinel_is_absorbing(self, mode):
        # either argument at the -inf sentinel: result is the other one,
        # correction suppressed, no NaN anywhere
        x = np.array([0.0, -3.5, 17.25])
        out = max_star(x, METRIC_NEG_INF, mode)
        assert np.array_equal(out, x)
        out = max_star(METRIC_NEG_INF, x, mode)
        assert np.array_equal(out, x)
        both = max_star(METRIC_NEG_INF, METRIC_NEG_INF, mode)
        assert both <= -1e12 and np.isfinite(both)


class TestReduce:
    def test_max_log_list(self):
        assert max_star_reduce([1.0, 7.0, 3.0], MaxStarMode.MAX_LOG) == 7.0

    def test_log_map_equal_terms(self):
        assert max_star_reduce([0.0, 0.0, 0.0, 0.0], MaxStarMode.LOG_MAP) == pytest.approx(
            math.log(4), abs=1e-12)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_singleton_identity(self, mode):
        assert max_star_reduce([4.25], mode) == 4.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_star_reduce([], MaxStarMode.MAX_LOG)

    def test_log_map_reduce_is_logsumexp(self):
        rng = np.random.default_rng(5)
        for length in range(2, 17):
            v = rng.normal(0, 5, length)
            want = np.logaddexp.reduce(np.sort(v))  # independent order
            got = max_star_reduce(v, MaxStarMode.LOG_MAP)
            assert got == pytest.approx(want, abs=1e-9)

    def test_max_log_reduce_order_free(self):
        rng = np.random.default_rng(6)
        v = rng.normal(0, 5, (100, 8))
        got = max_star_reduce(v.T, MaxStarMode.MAX_LOG)   # a transposed view
        assert np.array_equal(got, v.max(axis=-1))

    def test_left_fold_order_for_approximate_modes(self):
        # constant-mode corrections are not associative; the contract is a
        # left fold, checked against a hand-rolled fold
        v = [0.0, 0.4, -0.2, 5.0]
        acc = v[0]
        for item in v[1:]:
            acc = max_star(acc, item, MaxStarMode.CONSTANT_LOG)
        assert max_star_reduce(v, MaxStarMode.CONSTANT_LOG) == acc


def log_map_values(seed, shape, sentinel_frac):
    """Metrics on the 2**-6 grid within +-32, so ties are common, with a
    share of them replaced by the sentinels a decode produces: one
    unreachable state, one plus a finite metric, and two summed."""
    rng = np.random.default_rng(seed)
    values = rng.integers(-2048, 2049, shape) / 64
    sentinels = np.array([METRIC_NEG_INF, METRIC_NEG_INF + 3.25, 2 * METRIC_NEG_INF])
    hit = rng.random(shape) < sentinel_frac
    values[hit] = rng.choice(sentinels, int(hit.sum()))
    return values


def assert_near_logaddexp(got, want):
    # 1e-12 on the metric scale; at the sentinel scale (|want| ~ 1e300)
    # one float spacing is about 1e284, so the bound there is relative
    np.testing.assert_array_less(np.abs(got - want),
                                 1e-12 * np.maximum(1.0, np.abs(want)))


class TestLogMapRows:
    """Log-map pairs and folds: each row of a batched call gives the same
    bits as the call on that row alone, whatever the batch's size and
    layout, and stays within 1e-12 of numpy's logaddexp."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 300), k=st.integers(1, 16),
           seed=st.integers(0, 2 ** 32 - 1),
           sentinel_frac=st.sampled_from([0.0, 0.25, 1.0]))
    def test_pairs(self, rows, k, seed, sentinel_frac):
        # strided x and y, as the decoder's butterfly passes them
        pairs = log_map_values(seed, (rows, k, 2), sentinel_frac)
        x, y = pairs[..., 0], pairs[..., 1]
        batch = max_star(x, y, MaxStarMode.LOG_MAP)
        for r in range(rows):
            alone = max_star(x[r].copy(), y[r].copy(), MaxStarMode.LOG_MAP)
            assert alone.tobytes() == batch[r].tobytes()
        assert_near_logaddexp(batch, np.logaddexp(x, y))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 300), k=st.integers(1, 16),
           transposed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           sentinel_frac=st.sampled_from([0.0, 0.25, 1.0]))
    def test_folds(self, rows, k, transposed, seed, sentinel_frac):
        values = log_map_values(seed, (rows, k), sentinel_frac)
        # the batch with each row's fold axis moved to axis 0: a transposed
        # view, or a C-ordered copy as the decoder passes
        view = values.T if transposed else values.T.copy()
        batch = max_star_reduce(view, MaxStarMode.LOG_MAP)
        for r in range(rows):
            alone = max_star_reduce(values[r], MaxStarMode.LOG_MAP)
            assert np.float64(alone).tobytes() == batch[r].tobytes()
        assert_near_logaddexp(batch, np.logaddexp.reduce(values, axis=-1))


def layouts(a):
    """The values of a (k, rows) as a C-contiguous copy, a transposed
    (Fortran-ordered) view and a view strided by two, each with the
    array that owns its memory."""
    c = a.copy()
    f = a.T.copy()
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    wide[..., ::2] = a
    return {"C": (c, c), "transposed": (f.T, f), "strided": (wide[..., ::2], wide)}


class TestLayouts:
    """max_star and max_star_reduce write no input, and give the same
    bits whatever the memory layout of their operands, 0-d included."""

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(ALL_MODES), rows=st.integers(1, 40),
           k=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1),
           sentinel_frac=st.sampled_from([0.0, 0.25]))
    def test_pairs(self, mode, rows, k, seed, sentinel_frac):
        x, y = log_map_values(seed, (2, k, rows), sentinel_frac)
        want = max_star(x, y, mode)
        for xv, x_owner in layouts(x).values():
            for yv, y_owner in layouts(y).values():
                before = x_owner.tobytes(), y_owner.tobytes()
                got = max_star(xv, yv, mode)
                assert got.tobytes() == want.tobytes()
                assert (x_owner.tobytes(), y_owner.tobytes()) == before
        for i, j in np.ndindex(k, rows):
            alone = max_star(np.asarray(x[i, j]), np.asarray(y[i, j]), mode)
            assert np.ndim(alone) == 0
            assert np.float64(alone).tobytes() == want[i, j].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(ALL_MODES), rows=st.integers(1, 40),
           k=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1),
           sentinel_frac=st.sampled_from([0.0, 0.25]))
    def test_folds(self, mode, rows, k, seed, sentinel_frac):
        # the decoder folds (8, rows) edge sets over axis 0
        values = log_map_values(seed, (k, rows), sentinel_frac)
        want = [max_star_reduce(values[:, r].copy(), mode) for r in range(rows)]
        for view, owner in layouts(values).values():
            before = owner.tobytes()
            got = max_star_reduce(view, mode)
            assert owner.tobytes() == before
            assert got.shape == (rows,)
            for r in range(rows):
                assert got[r].tobytes() == np.float64(want[r]).tobytes()
