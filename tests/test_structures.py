import random

import pytest

from rlelcs.structures import DynArray, RangeSum2D


def test_dynarray_basic_contract():
    a = DynArray()
    a.insert(1, 5, 9)
    a.insert(2, 7, 3)
    assert a.range_min(1, 2) == 3
    assert a.locate(7) == 2
    assert 5 in a and 7 in a and 6 not in a
    a.delete(1)
    assert a.index(1) == (7, 3)
    assert 5 not in a


def test_dynarray_contract_errors():
    a = DynArray()
    a.insert(1, 5, 9)
    with pytest.raises(ValueError):
        a.insert(2, 5, 1)
    with pytest.raises(KeyError):
        a.locate(6)
    with pytest.raises(IndexError):
        a.index(2)
    with pytest.raises(IndexError):
        a.insert(3, 8, 8)
    with pytest.raises(IndexError):
        a.range_min(1, 2)


def test_dynarray_range_min_exhaustive_small():
    rng = random.Random(7)
    a = DynArray()
    for i in range(1, 33):
        a.insert(i, i, rng.randint(-10, 10))
    vals = [v for _, v in a.items()]
    for lo in range(1, 33):
        for hi in range(lo, 33):
            assert a.range_min(lo, hi) == min(vals[lo - 1 : hi])


def test_dynarray_insert_delete_identity():
    a = DynArray()
    for i, (k, v) in enumerate([(3, 1), (9, 2), (4, 0)], 1):
        a.insert(i, k, v)
    before = a.serialize()
    a.insert(2, 77, -5)
    a.delete(2)
    assert a.serialize() == before


def test_rangesum2d_duplicates_counted():
    r = RangeSum2D(8)
    r.insert(1, 1)
    r.insert(2, 3)
    r.insert(2, 3)
    assert r.count(1, 2, 1, 3) == 3
    assert RangeSum2D(4).count(0, 4, 0, 4) == 0
    r2 = RangeSum2D(8)
    r2.insert(2, 3)
    r2.insert(2, 3)
    r2.delete(2, 3)
    assert r2.count(2, 2, 3, 3) == 1


def test_rangesum2d_errors_and_charges():
    r = RangeSum2D(4)
    with pytest.raises(KeyError):
        r.delete(1, 1)
    with pytest.raises(IndexError):
        r.insert(5, 0)


def test_rangesum2d_canonical_serialization():
    a, b = RangeSum2D(5), RangeSum2D(5)
    a.insert(1, 2)
    a.insert(3, 3)
    b.insert(3, 3)
    b.insert(4, 4)
    b.delete(4, 4)
    b.insert(1, 2)
    assert a.serialize() == b.serialize()
