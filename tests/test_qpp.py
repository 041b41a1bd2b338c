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
