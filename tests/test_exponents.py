"""Exponent intervals, certified comparisons, and the literal floors."""

import copy
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dulac.errors import BasisMismatch, ExactValueRequired, UndecidableComparison
from dulac.exponents import BasisEntry, Exponent, ExponentBasis, exp_compare, re_compare
from dulac.scalars import ExactScalar
from dulac.series import DulacSeries
from dulac.tpoly import TPoly

from .util import (
    child_env,
    enclosure_sign,
    exponent_key_oracle,
    exponent_parts_oracle,
    exponent_serialize_oracle,
    interval,
    literal_floor,
)


def test_entry_parse():
    e = BasisEntry.parse("1+1i")
    assert e.re == 1 and e.im == 1 and e.exact
    d = BasisEntry.parse("0.5")
    assert d.re == Fraction(1, 2) and not d.exact
    assert d.re_floor == Fraction(1, 20)  # half the last decimal place
    assert BasisEntry.parse("-3/2i").im == Fraction(-3, 2)
    with pytest.raises(ValueError):
        BasisEntry.parse("x")


def test_basis_validation():
    with pytest.raises(ValueError):
        ExponentBasis(["1", "1"])          # duplicate value
    with pytest.raises(ValueError):
        ExponentBasis(["1", "1.0"])        # duplicate value via decimal literal
    with pytest.raises(ValueError):
        ExponentBasis([])


def test_arithmetic_and_parts():
    b = ExponentBasis(["1", "1+1i"])
    e = b.exponent([Fraction(1, 2), Fraction(2)])
    assert e.re_mid == Fraction(5, 2)
    assert e.im_mid == Fraction(2)
    f = e + e
    assert f.coords == (Fraction(1), Fraction(4))
    assert (e - e).is_zero()
    assert (e * Fraction(2)).coords == f.coords
    assert e.value() == ExactScalar(Fraction(5, 2), Fraction(2))


def test_value_requires_exact_basis():
    b = ExponentBasis(["1", "0.5"])
    ok = b.exponent([Fraction(2), Fraction(0)])
    assert ok.value() == ExactScalar.of(2)  # approximate entry unused
    with pytest.raises(ExactValueRequired):
        b.exponent([Fraction(0), Fraction(1)]).value()


def test_compare_exact():
    b = ExponentBasis(["1"])
    one, two = b.rational(1), b.rational(2)
    assert exp_compare(one, two) == -1
    assert exp_compare(two, one) == 1
    assert exp_compare(one, b.rational(1)) == 0
    assert re_compare(two, one) == 1


def test_compare_tie_break_imaginary():
    b = ExponentBasis(["1", "1i"])
    # same real part 1, imaginary parts 0 vs 1: real first, then imaginary
    re_only = b.exponent([1, 0])
    with_im = b.exponent([1, 1])
    assert exp_compare(re_only, with_im) == -1


def test_undecidable_comparison():
    b = ExponentBasis(["1", "0.5"])
    # midpoints of 1*(1) and 2*(0.5) agree; the enclosure radius cannot
    # shrink below the literal's resolution floor, so no certificate exists
    a = b.exponent([1, 0])
    c = b.exponent([0, 2])
    with pytest.raises(UndecidableComparison):
        exp_compare(a, c)


def test_decidable_despite_approximation():
    b = ExponentBasis(["1", "0.5"])
    # 0.5 < 1 by far more than the floor 1/20
    assert exp_compare(b.exponent([0, 1]), b.exponent([1, 0])) == -1


def test_broken_independence_promise():
    b = ExponentBasis(["1", "2/1"])  # dependent entries, carefully not equal
    e, f = b.exponent([2, 0]), b.exponent([0, 1])
    with pytest.raises(UndecidableComparison):
        exp_compare(e, f)
    # equal sort keys with distinct coordinates are caught when a series holds both
    with pytest.raises(UndecidableComparison):
        DulacSeries(b, ((e, TPoly.ONE), (f, TPoly.ONE)), float("inf"))


def test_re_below():
    b = ExponentBasis(["1"])
    e = b.rational(Fraction(3, 2))
    assert e.re_below(2)
    assert not e.re_below(Fraction(3, 2))  # strict
    assert e.re_below(float("inf"))
    assert not e.re_below(float("-inf"))


def test_radius_is_the_literal_floor():
    e = ExponentBasis(["0.5"]).exponent([1])
    assert e.radius("re") == Fraction(1, 20)
    assert e.radius("im") == 0


def test_serialize_roundtrip():
    b = ExponentBasis(["1", "1+1i"])
    e = b.exponent([Fraction(-7, 3), Fraction(2, 5)])
    assert b.parse_exponent(e.serialize()) == e


def test_parse_exponent_accepts_only_strings_and_integers():
    b = ExponentBasis(["1", "1+1i"])
    assert b.parse_exponent([2, "1/3"]) == b.exponent([Fraction(2), Fraction(1, 3)])
    for coords in ([0.5, 0], [True, 0], [None, 0], [[1], 0], "12"):
        with pytest.raises(ValueError):
            b.parse_exponent(coords)


@pytest.mark.parametrize("bad", [" 3 ", "1.5", "1e2", "1_0", "3\n"])
def test_parse_exponent_reads_only_rational_strings(bad):
    # a coordinate string is "a" or "a/b", though Fraction reads more
    b = ExponentBasis(["1"])
    with pytest.raises(ValueError, match="malformed rational literal"):
        b.parse_exponent([bad])


@pytest.mark.parametrize("coords", [[1, 2, 3], [1], []], ids=["too_many", "too_few", "none"])
@pytest.mark.parametrize("build", [Exponent, ExponentBasis.exponent], ids=["Exponent", "basis.exponent"])
def test_exponent_refuses_a_wrong_number_of_coordinates(build, coords):
    # a third coordinate over a 2-entry basis was kept and then ignored by
    # the value, so Exponent(b, [1, 2, 3]) + b.exponent([1, 2]) gave (2, 4)
    b = ExponentBasis(["1", "1+1i"])
    with pytest.raises(ValueError, match=f"exponent: expected 2 coordinates, got {len(coords)}"):
        build(b, coords)


def test_mismatched_bases():
    with pytest.raises(BasisMismatch):
        exp_compare(ExponentBasis(["1"]).rational(1), ExponentBasis(["2"]).exponent([1]))


def test_compare_matches_fraction_order():
    rng = random.Random(23)
    b = ExponentBasis(["1"])
    for _ in range(300):
        p = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        want = (p > q) - (p < q)
        assert exp_compare(b.rational(p), b.rational(q)) == want


def test_compare_matches_complex_order_mixed_basis():
    rng = random.Random(29)
    b = ExponentBasis(["1", "1+1i"])
    for _ in range(300):
        a = b.exponent([Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))])
        c = b.exponent([Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))])
        want = ((a.re_mid, a.im_mid) > (c.re_mid, c.im_mid)) - ((a.re_mid, a.im_mid) < (c.re_mid, c.im_mid))
        assert exp_compare(a, c) == want


def _interval_sign(lo, hi) -> int:
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    assert lo == hi == 0
    return 0


_COORDS = st.fractions(min_value=-12, max_value=12, max_denominator=6)
# integers, and fractions just beside them, so that the key's floors straddle
_NEAR_INTEGERS = st.builds(
    lambda n, off: n + off,
    st.integers(-4, 4),
    st.sampled_from([Fraction(0), Fraction(1, 7), Fraction(-1, 7), Fraction(1, 2), Fraction(-5, 6)]),
)


@pytest.mark.parametrize("entries", [["1"], ["1", "1+1i"]])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_key_order_matches_certified_interval_signs(entries, data):
    # oracle: the signs of the enclosures of the difference, Re first, then Im
    b = ExponentBasis(entries)
    coords = st.lists(st.one_of(_COORDS, _NEAR_INTEGERS), min_size=b.dim, max_size=b.dim)
    exps = [b.exponent(data.draw(coords)) for _ in range(4)]
    for a in exps:
        for c in exps:
            d = a - c
            re_s = _interval_sign(*interval(d, "re"))
            want = re_s or _interval_sign(*interval(d, "im"))
            assert (a.key > c.key) - (a.key < c.key) == want
            assert (a.key == c.key) == (want == 0)
            assert exp_compare(a, c) == want
            assert re_compare(a, c) == re_s
            assert a.re_below(c.re_mid) == (re_s < 0)
    ordered = sorted(exps, key=lambda e: e.key)
    assert ordered == sorted(exps, key=lambda e: (e.re_mid, e.im_mid))
    assert all(exp_compare(x, y) <= 0 for x, y in zip(ordered, ordered[1:]))


def test_floor_first_key_takes_huge_coordinates():
    # the floors come from ints, so no float conversion can overflow
    b = ExponentBasis(["1", "1+1i"])
    big = b.exponent([Fraction(-(10**400) - 1, 3), Fraction(10**400, 7)])
    bigger = b.exponent([Fraction(-(10**400), 3), Fraction(10**400, 7)])
    assert big.key < bigger.key and exp_compare(big, bigger) == -1


def test_equal_exponents_are_one_map_key():
    basis = ExponentBasis(["1", "1+1i"])
    e = basis.exponent([Fraction(1, 2), 3])
    f = basis.exponent([Fraction(1, 4), 1]) + basis.exponent([Fraction(1, 4), 2])
    assert e == f and hash(e) == hash(f) and e is not f
    assert {e: "x"}[f] == "x"
    assert e != basis.exponent([Fraction(1, 2), 2])
    assert e != ExponentBasis(["1", "1+2i"]).exponent(e.coords)
    assert e != e.coords


# sqrt(2) to 64 decimal places, and its first 40
_SQRT2_64 = "1.4142135623730950488016887242096980785696718753769480731766797379"
_SQRT2_40 = _SQRT2_64[:42]


def _tiny_real_part(literal: str) -> Exponent:
    """(10^-45 - L) * 1 + 1 * L over the basis [1, L]: real part 10^-45."""
    basis = ExponentBasis(["1", literal])
    return basis.exponent([Fraction(1, 10**45) - Fraction(literal), 1])


def test_literal_floor_decides_a_tiny_real_part():
    # the 64-digit literal fixes sqrt(2) to 5e-65, far below 10^-45
    e = _tiny_real_part(_SQRT2_64)
    assert e.radius("re") == Fraction(1, 2 * 10**64) < e.re_mid
    assert e.re_sign() == 1


def test_literal_floor_leaves_a_tiny_real_part_undecided():
    # the 40-digit literal fixes sqrt(2) only to 5e-41, far above 10^-45
    e = _tiny_real_part(_SQRT2_40)
    with pytest.raises(UndecidableComparison, match="enclosure radius 5.000e-41, set by the decimal precision"):
        e.re_sign()


def test_re_low_and_shift_take_the_literal_floor():
    e = ExponentBasis(["1", _SQRT2_64]).exponent([0, 1])
    floor = Fraction(1, 2 * 10**64)
    assert e.re_low == e.re_mid - floor
    assert DulacSeries.zero(e.basis, 5).shift(e).cutoff == 5 + e.re_mid - floor


# a decimal literal with 1 to 80 places; its integer digit is at least 2, so
# the basis ["1", L] never holds two equal values
_LITERALS = st.builds(
    lambda whole, places, digits: f"{whole}.{digits % 10**places:0{places}d}",
    st.integers(2, 9), st.integers(1, 80), st.integers(0, 10**80 - 1),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(literal=_LITERALS, data=st.data())
def test_signs_decide_exactly_when_the_literal_floor_excludes_zero(literal, data):
    # oracle: Re(a + b L) lies in a + b L +- |b| floor, floor read off the
    # literal; a is drawn within a few floors of -b L to reach the boundary
    floor = literal_floor(literal)
    value = Fraction(literal)
    basis = ExponentBasis(["1", literal])
    quarter = st.integers(-12, 12).map(lambda k: k * floor / 4)
    small = st.integers(-3, 3)

    def draw_exponent():
        b = data.draw(small)
        return basis.exponent([-b * value + data.draw(quarter) + data.draw(small), b])

    def decides(want, call):
        if want is None:
            with pytest.raises(UndecidableComparison):
                call()
        else:
            assert call() == want

    e, f = draw_exponent(), draw_exponent()
    b = e.coords[1]
    re_e = e.coords[0] + b * value
    decides(enclosure_sign(re_e, abs(b) * floor), e.re_sign)
    bound = data.draw(quarter) + data.draw(st.sampled_from([0, re_e]))
    want = enclosure_sign(re_e - bound, abs(b) * floor)
    decides(None if want is None else want < 0, lambda: e.re_below(bound))
    db = b - f.coords[1]
    want = 0 if e == f else enclosure_sign(e.coords[0] - f.coords[0] + db * value, abs(db) * floor)
    decides(want, lambda: exp_compare(e, f))


def test_float_entry_points_read_floats_at_their_repr():
    b = ExponentBasis(["1"])
    tenth = b.exponent([Fraction(1, 10)])
    assert b.rational(0.1) == tenth
    assert b.exponent([0.1]) == tenth
    assert b.rational(1) * 0.1 == tenth == 0.1 * b.rational(1)
    # 21/10 lies below the binary value of the float 2.1, but not below 2.1
    assert not b.rational(Fraction(21, 10)).re_below(2.1)
    assert b.rational(Fraction(209, 100)).re_below(2.1)


# -- the content-free integer layout against a Fraction-coordinate oracle -------

_LAYOUT_BASES = [["1"], ["1", "1+1i"], ["1/2", "2/3+1/5i"], ["3/7i", "-5/4", "1+2/3i"]]
_Q = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_SCALARS = st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=8))


def _oracle_parts(b: ExponentBasis, coords) -> tuple:
    """(Re, Im) of sum coords[i] * entry i, from the Fraction coordinates."""
    return (
        sum((c * e.re for c, e in zip(coords, b.entries)), Fraction(0)),
        sum((c * e.im for c, e in zip(coords, b.entries)), Fraction(0)),
    )


def _draw(data, b: ExponentBasis) -> list:
    return data.draw(st.lists(_Q, min_size=b.dim, max_size=b.dim))


def _assert_canonical(e: Exponent, coords) -> None:
    assert e.den > 0 and gcd(e.den, *e.nums) == 1
    assert all(type(a) is int for a in e.nums)
    assert e.coords == tuple(coords)
    assert all(type(c) is Fraction for c in e.coords)
    assert e.serialize() == exponent_serialize_oracle(e)


def test_serialize_big_and_negative_coordinates():
    b = ExponentBasis(["1", "1+1i"])
    for coords in ([0, 0], [Fraction(-3, 6), 7], [3**300 + 1, Fraction(-(2**400), 3**7 * 5)]):
        e = b.exponent(coords)
        want = [f"{Fraction(c).numerator}/{Fraction(c).denominator}" for c in coords]
        assert e.serialize() == exponent_serialize_oracle(e) == want


@pytest.mark.parametrize("entries", _LAYOUT_BASES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_layout_matches_fraction_oracle(entries, data):
    b = ExponentBasis(entries)
    x, y = _draw(data, b), _draw(data, b)
    k = data.draw(_SCALARS)
    e, f = b.exponent(x), b.exponent(y)
    _assert_canonical(e, x)
    for got, want in [
        (e + f, [p + q for p, q in zip(x, y)]),
        (e - f, [p - q for p, q in zip(x, y)]),
        (-e, [-p for p in x]),
        (e * k, [p * k for p in x]),
        (k * e, [p * k for p in x]),
        (e - e, [0] * b.dim),
    ]:
        _assert_canonical(got, want)
    # equal values reached by different routes have equal fields and hashes
    same = (e + f) - f
    assert (same.den, same.nums) == (e.den, e.nums) and same == e and hash(same) == hash(e)
    assert (e * 0).nums == b.zero().nums and e * 0 == b.zero()
    # the coords round trip, through Fractions and through JSON strings
    assert b.exponent(e.coords) == e == b.parse_exponent(e.serialize())
    # Re, Im, value and is_zero from the int weights
    re, im = _oracle_parts(b, x)
    assert (e.re_mid, e.im_mid) == (re, im) and e.re_low == re
    assert e.value() == ExactScalar(re, im)
    assert e.is_zero() == (not any(x))
    # the key order is the (Re, Im) order of the oracle
    want = (_oracle_parts(b, x) > _oracle_parts(b, y)) - (_oracle_parts(b, x) < _oracle_parts(b, y))
    assert (e.key > f.key) - (e.key < f.key) == want == exp_compare(e, f)


def _sign(q) -> int:
    return (q > 0) - (q < 0)


@pytest.mark.parametrize("entries", [["1"], ["1", "1+1i"], ["1", "1/3+1/2i"], ["-1/2", "2+3/4i"]])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_keys_and_signs_match_fraction_oracle(entries, data):
    # an integral exponent keys on its int parts, and every exact-basis sign
    # is one int cross-multiplication; both against Fractions, with den > 1
    # and weight denominators > 1 among the draws
    b = ExponentBasis(entries)
    coords = st.lists(st.one_of(_Q, st.integers(-9, 9)), min_size=b.dim, max_size=b.dim)
    exps = [b.exponent(data.draw(coords)) for _ in range(3)]
    bound = data.draw(st.one_of(st.integers(-20, 20), _Q))
    for e in exps:
        re, im = _oracle_parts(b, e.coords)
        if e.den * b._weight_den == 1:
            assert e.key == (re, re, im, im) and all(type(v) is int for v in e.key)
        assert (e.re_sign(), e.im_sign()) == (_sign(re), _sign(im))
        assert e._sign("re", Fraction(bound)) == _sign(re - bound)
        assert e._sign("im", Fraction(bound)) == _sign(im - bound)
        assert e.re_below(bound) == (re < bound)
        assert e._sign("re", re) == 0 and not e.re_below(re)
        assert e * 1 is e
        for f in exps:
            pf = _oracle_parts(b, f.coords)
            want = ((re, im) > pf) - ((re, im) < pf)
            assert (e.key > f.key) - (e.key < f.key) == want == exp_compare(e, f)
            assert (e.key == f.key) == (e == f)


def _slot(e: Exponent, name: str):
    """The slot name of e as stored, with no lazy build: AttributeError when
    the slot is empty."""
    return Exponent.__dict__[name].__get__(e)


def _built(b: ExponentBasis, data) -> list:
    """Exponents drawn over b, built through every path: the constructor,
    _raw, the linear operations, the rational embedding, pickle and deepcopy."""
    coords = st.lists(st.one_of(_Q, _NEAR_INTEGERS), min_size=b.dim, max_size=b.dim)
    x, y, k = data.draw(coords), data.draw(coords), data.draw(_SCALARS)
    e, f = Exponent(b, x), b.exponent(y)
    out = [e, f, Exponent._raw(b, e.den, e.nums), b.zero(), e + f, e - f, -e, e * k, k * f,
           pickle.loads(pickle.dumps(e)), copy.deepcopy(f)]
    return out + [b.rational(k)] if b._one_index is not None else out


@pytest.mark.parametrize("entries", _LAYOUT_BASES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_parts_and_key_are_set_at_construction(entries, data):
    # oracle: the formulas that built parts and key on first read; over an
    # exact basis, Gaussian-rational entries and non-integral coordinates
    # among the draws, every path sets both before any read
    b = ExponentBasis(entries)
    for e in _built(b, data):
        parts, key = _slot(e, "parts"), _slot(e, "key")
        assert parts == exponent_parts_oracle(e) and key == exponent_key_oracle(e)
        d, re, im = parts
        assert (Fraction(re, d), Fraction(im, d)) == _oracle_parts(b, e.coords)
        for name in ("parts", "key"):
            with pytest.raises(AttributeError):
                setattr(e, name, 0)
            with pytest.raises(AttributeError):
                delattr(e, name)
        assert _slot(e, "parts") is parts and _slot(e, "key") is key


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_approximate_parts_and_key_are_built_on_first_read(data):
    # over an approximate basis parts and key stay empty until read, and the
    # key still orders by the certified signs of the difference's enclosures
    b = ExponentBasis(["1", "1.41421356237"])
    exps = _built(b, data)
    for e in exps:
        for name in ("parts", "key"):
            with pytest.raises(AttributeError):
                _slot(e, name)
    for e in exps:
        parts, key = e.parts, e.key
        assert parts == exponent_parts_oracle(e)
        assert _slot(e, "parts") is parts and _slot(e, "key") is key
        for name in ("parts", "key"):
            with pytest.raises(AttributeError):
                setattr(e, name, 0)
            with pytest.raises(AttributeError):
                delattr(e, name)
    for a in exps:
        for c in exps:
            d = a - c
            want = _interval_sign(*interval(d, "re")) or _interval_sign(*interval(d, "im"))
            assert (a.key > c.key) - (a.key < c.key) == want == exp_compare(a, c)


@pytest.mark.parametrize("entries", [["1/2", "2/3+1/5i"], ["1", "1.41421356237"]])
def test_exponent_is_immutable_and_pickles(entries):
    b = ExponentBasis(entries)
    e = b.exponent([Fraction(-7, 6), Fraction(3, 4)])
    for name in ("basis", "den", "nums", "coords", "re_mid", "key"):
        with pytest.raises(AttributeError):
            setattr(e, name, 0)
        with pytest.raises(AttributeError):
            delattr(e, name)
    assert not hasattr(e, "__dict__")
    for copied in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
        assert copied == e and hash(copied) == hash(e)
        assert (copied.den, copied.nums, copied.coords) == (e.den, e.nums, e.coords)
        assert copied.re_mid == e.re_mid and copied.basis == b
    # the basis entries are immutable values too
    fields = ("literal", "re", "im", "re_floor", "im_floor")
    for entry in b.entries:
        for name in (*fields, "exact"):
            with pytest.raises(AttributeError):
                setattr(entry, name, 0)
            with pytest.raises(AttributeError):
                delattr(entry, name)
        assert not hasattr(entry, "__dict__")
        assert repr(entry) == "BasisEntry(" + ", ".join(f"{n}={getattr(entry, n)!r}" for n in fields) + ")"
        for copied in (pickle.loads(pickle.dumps(entry)), copy.deepcopy(entry)):
            assert copied == entry and hash(copied) == hash(entry) and repr(copied) == repr(entry)


_CROSS_PROCESS = """
import pickle, sys
from dulac.exponents import ExponentBasis
path, mode = sys.argv[1:]
basis = ExponentBasis(["1", "1+1i"])
if mode == "dump":
    open(path, "wb").write(pickle.dumps(basis.exponent([1, 2])))
else:
    e = pickle.loads(open(path, "rb").read())
    assert e.basis == basis and hash(e.basis) == hash(basis) and {basis: 1}[e.basis] == 1
    assert e == basis.exponent([1, 2]) and {basis.exponent([1, 2]): 1}[e] == 1
"""


def test_exponent_unpickled_in_another_process_hashes_as_a_fresh_one(tmp_path):
    # string hashes, and so the hash of a basis, differ between processes
    # started with different PYTHONHASHSEED values
    path = str(tmp_path / "e.pickle")
    for seed, mode in (("1", "dump"), ("2", "load")):
        env = child_env(PYTHONHASHSEED=seed)
        subprocess.run([sys.executable, "-c", _CROSS_PROCESS, path, mode], check=True, env=env, timeout=60)
