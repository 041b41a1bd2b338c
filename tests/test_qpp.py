import numpy as np
import pytest

from lteturbo.qpp import (QppParams, block_sizes, inverse_permutation,
                          params_for_block_size, permutation, qpp_index)


def test_table_has_all_standard_sizes():
    expected = (list(range(40, 513, 8)) + list(range(528, 1025, 16))
                + list(range(1056, 2049, 32)) + list(range(2112, 6145, 64)))
    assert list(block_sizes()) == expected
    assert len(block_sizes()) == 188


def test_known_parameter_pairs():
    p40 = params_for_block_size(40)
    assert (p40.f1, p40.f2) == (3, 10)
    p6144 = params_for_block_size(6144)
    assert (p6144.f1, p6144.f2) == (263, 480)


def test_unsupported_block_size():
    with pytest.raises(ValueError, match="unsupported block size"):
        params_for_block_size(41)


@pytest.mark.parametrize("n, x, fx", [
    (40, 0, 0),        # f(0) = 0 for every parameter pair
    (40, 1, 13),       # (10*1 + 3*1) mod 40
    (6144, 1, 743),    # (480 + 263) mod 6144
    (6144, 2, 2446),   # (480*4 + 263*2) mod 6144
])
def test_index_spot_values(n, x, fx):
    assert qpp_index(params_for_block_size(n), x) == fx


def test_index_range_check():
    p = params_for_block_size(40)
    with pytest.raises(ValueError):
        qpp_index(p, 40)
    with pytest.raises(ValueError):
        qpp_index(p, -1)


@pytest.mark.parametrize("x", [1.5, 1.0, "1", None])
def test_index_must_be_an_integer(x):
    # 1.5 was truncated to 1 after the range check and returned f(1) = 13
    with pytest.raises(TypeError, match="x must be an integer"):
        qpp_index(params_for_block_size(40), x)
    assert qpp_index(params_for_block_size(40), np.int64(1)) == 13


@pytest.mark.parametrize("n", [40.0, np.float64(40.0)])
def test_block_size_must_be_an_integer(n):
    # 40.0 gave QppParams(n=40.0, ...), whose float permutation failed
    # turbo_encode with numpy's IndexError
    with pytest.raises(TypeError, match="block size must be an integer"):
        params_for_block_size(n)


@pytest.mark.parametrize("n, f1, f2, error, match", [
    (40.0, 3, 10, TypeError, "block size must be an integer"),
    (40, 3.0, 10, TypeError, "f1 must be an integer"),
    (40, 3, "a", TypeError, "f2 must be an integer"),
    (6148, 1, 2, ValueError, r"block size must be in \[1, 6144\]"),
    (4 * 10 ** 9, 1, 2, ValueError, r"block size must be in \[1, 6144\]"),
    (40, 43, 10, ValueError, r"f1 must be in \[0, 39\]"),
    (40, 3, 10 ** 400, ValueError, r"f2 must be in \[0, 39\]"),
], ids=["n-float", "f1-float", "f2-str", "n-6148", "n-4e9", "f1-43", "f2-huge"])
def test_parameters_are_integers_within_the_block(n, f1, f2, error, match):
    # 'a' failed only by accident ("not all arguments converted"); an n
    # beyond 6144 reached the exhaustive bijection check, np.arange(n)
    with pytest.raises(error, match=match):
        QppParams(n=n, f1=f1, f2=f2)


def test_parameters_are_stored_as_python_ints():
    p = QppParams(n=np.int64(40), f1=np.int32(3), f2=np.uint16(10))
    assert (p.n, p.f1, p.f2) == (40, 3, 10)
    assert all(type(v) is int for v in (p.n, p.f1, p.f2))


def test_whole_table_is_valid():
    # bijectivity, f1 odd, f2 even for every entry; QppParams.__post_init__
    # enforces all three, so construction succeeding is the check
    for n in block_sizes():
        p = params_for_block_size(n)
        assert p.f1 % 2 == 1 and p.f2 % 2 == 0 and p.n % 4 == 0


def test_invariant_violations_rejected():
    with pytest.raises(ValueError, match="f1 must be odd"):
        QppParams(n=40, f1=4, f2=10)
    with pytest.raises(ValueError, match="f2 must be even"):
        QppParams(n=40, f1=3, f2=11)
    with pytest.raises(ValueError, match="multiple of 4"):
        QppParams(n=42, f1=3, f2=10)
    with pytest.raises(ValueError, match="bijection"):
        QppParams(n=12, f1=3, f2=2)  # f(1) = f(5) = 5


def test_permutation_is_bijection():
    for n in (40, 104, 6144):
        pi = permutation(params_for_block_size(n))
        assert np.array_equal(np.sort(pi), np.arange(n))


def test_permutation_matches_scalar_index():
    p = params_for_block_size(512)
    pi = permutation(p)
    for x in (0, 1, 7, 511):
        assert pi[x] == qpp_index(p, x)


def test_inverse_round_trip():
    for n in (40, 6144):
        p = params_for_block_size(n)
        pi, ip = permutation(p), inverse_permutation(p)
        x = np.arange(n)
        assert np.array_equal(ip[pi], x)
        assert np.array_equal(pi[ip], x)
        assert ip[0] == 0


def test_interleave_deinterleave_identity():
    p = params_for_block_size(256)
    pi, ip = permutation(p), inverse_permutation(p)
    v = np.random.default_rng(0).normal(size=256)
    assert np.array_equal(v[pi][ip], v)
    assert np.array_equal(v[ip][pi], v)
