import lteturbo


def test_every_public_name_resolves():
    # a stale string in __all__ breaks `from lteturbo import *` only
    missing = [name for name in lteturbo.__all__ if not hasattr(lteturbo, name)]
    assert not missing
    assert len(set(lteturbo.__all__)) == len(lteturbo.__all__)
