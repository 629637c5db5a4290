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


class ListOracle:
    def __init__(self):
        self.items = []

    def index(self, i):
        return self.items[i - 1]

    def insert(self, i, k, v):
        self.items.insert(i - 1, (k, v))

    def delete(self, i):
        return self.items.pop(i - 1)

    def locate(self, key):
        return next(i + 1 for i, (k, _) in enumerate(self.items) if k == key)

    def range_min(self, a, b):
        return min(v for _, v in self.items[a - 1 : b])


@pytest.mark.parametrize("seed", range(10))
def test_dynarray_matches_oracle_randomized(seed):
    rng = random.Random(seed)
    dut, ref = DynArray(), ListOracle()
    live_keys = []
    next_key = 0
    for _ in range(10_000):
        size = len(ref.items)
        op = rng.random()
        if op < 0.35 or size == 0:
            i = rng.randint(1, size + 1)
            dut.insert(i, next_key, rng.randint(-50, 50))
            ref.insert(i, *dut.index(i))
            live_keys.append(next_key)
            next_key += 1
        elif op < 0.55:
            i = rng.randint(1, size)
            assert dut.delete(i) == ref.delete(i)
            live_keys = [k for k, _ in ref.items]
        elif op < 0.7:
            i = rng.randint(1, size)
            assert dut.index(i) == ref.index(i)
        elif op < 0.85:
            key = rng.choice(live_keys)
            assert dut.locate(key) == ref.locate(key)
        else:
            a = rng.randint(1, size)
            b = rng.randint(a, size)
            assert dut.range_min(a, b) == ref.range_min(a, b)
    assert dut.items() == ref.items


def test_dynarray_range_min_exhaustive_small():
    rng = random.Random(7)
    a = DynArray()
    for i in range(1, 33):
        a.insert(i, i, rng.randint(-10, 10))
    vals = [v for _, v in a.items()]
    for lo in range(1, 33):
        for hi in range(lo, 33):
            assert a.range_min(lo, hi) == min(vals[lo - 1 : hi])


def test_dynarray_canonical_histories():
    # 100 different insert/delete histories that all end with the same
    # contents must serialize identically
    target = [(k, k * 7 % 13) for k in range(10)]
    serials = set()
    for trial in range(100):
        rng = random.Random(trial)
        a = DynArray()
        # noisy prefix: insert junk keys, delete them again later
        junk = [(100 + j, rng.randint(0, 9)) for j in range(rng.randint(0, 6))]
        for k, v in junk:
            a.insert(rng.randint(1, len(a) + 1), k, v)
        order = list(range(len(target)))
        rng.shuffle(order)
        for idx in order:
            # place after every smaller target key and before every larger one
            live = a.items()
            lo = 0
            hi = len(live) + 1
            for p, (k, _) in enumerate(live, 1):
                if k < 100 and k < idx:
                    lo = p
                if k < 100 and k > idx and hi == len(live) + 1:
                    hi = p
            a.insert(rng.randint(lo + 1, hi), *target[idx])
        for k, _ in junk:
            a.delete(a.locate(k))
        assert a.items() == target
        serials.add(a.serialize())
    assert len(serials) == 1


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


class GridOracle:
    def __init__(self):
        self.pts = []

    def insert(self, x, y):
        self.pts.append((x, y))

    def delete(self, x, y):
        self.pts.remove((x, y))

    def count(self, x1, x2, y1, y2):
        return sum(1 for x, y in self.pts if x1 <= x <= x2 and y1 <= y <= y2)


@pytest.mark.parametrize("seed", range(10))
def test_rangesum2d_matches_oracle_randomized(seed):
    rng = random.Random(100 + seed)
    size = 12
    dut, ref = RangeSum2D(size), GridOracle()
    for _ in range(10_000):
        op = rng.random()
        if op < 0.45 or not ref.pts:
            x, y = rng.randint(0, size), rng.randint(0, size)
            dut.insert(x, y)
            ref.insert(x, y)
        elif op < 0.7:
            x, y = rng.choice(ref.pts)
            dut.delete(x, y)
            ref.delete(x, y)
        else:
            x1 = rng.randint(0, size)
            x2 = rng.randint(x1, size)
            y1 = rng.randint(0, size)
            y2 = rng.randint(y1, size)
            assert dut.count(x1, x2, y1, y2) == ref.count(x1, x2, y1, y2)
    assert dut.points() == __import__("collections").Counter(ref.pts)


def test_rangesum2d_canonical_serialization():
    a, b = RangeSum2D(5), RangeSum2D(5)
    a.insert(1, 2)
    a.insert(3, 3)
    b.insert(3, 3)
    b.insert(4, 4)
    b.delete(4, 4)
    b.insert(1, 2)
    assert a.serialize() == b.serialize()
