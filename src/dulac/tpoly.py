"""Dense polynomials in the logarithm variable t, with exact complex
rational coefficients.

A polynomial is stored content-free over the integers, the layout of
FLINT's fmpq_poly (Hart, ICMS 2010) and the content/primitive-part form of
von zur Gathen & Gerhard, Modern Computer Algebra, ch. 6: one positive int
denominator den and int numerator tuples re and im, lowest degree first, so
that coefficient k is (re[k] + im[k] i) / den.  im is None when every
imaginary part is zero.  Trailing zero coefficients are stripped and
gcd(den, re..., im...) = 1, so equal polynomials have equal fields and equal
hashes.  The degree of the zero polynomial is -inf.

Sums, differences, products by scalars and polynomials, deriv, shift_apply,
Taylor expansion and the back-substitution of solve_shifted all run on
Python ints, with one gcd per result to restore the content-free form.  The
point lam or z they take is read as one int triple (d, a, b), the value
(a + b i) / d: split from an ExactScalar or a real number, or handed over
as is by an exponent's exact_parts method, so an exponent reaches the
kernels with no Fraction built and this module imports nothing from
exponents.  The module imports no floating point; the weighted norm
poly_norm lives in numeric.  ExactScalar coefficients are built only at the
API edge (coeffs, indexing, str, __call__, taylor_at) and are reduced like
any other Fraction; serialize formats the same literals straight from the
ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .scalars import _ZERO_Q, ExactScalar, Value, ZERO, _rational_literal, slot_setters

NEG_INF = float("-inf")


def _normal(den: int, re, im) -> "TPoly":
    """The TPoly with coefficients (re[k] + im[k] i) / den for a nonzero int
    den and int sequences re and im (im None or as long as re): trailing
    zeros stripped, content divided out, den made positive."""
    if len(re) == 1:
        # a constant: one gcd, with no strip loop and no list built
        x, y = re[0], im[0] if im else 0
        if not x and not y:
            return TPoly.ZERO
        g = gcd(den, x, y)
        if den < 0:
            g = -g
        return TPoly._raw(den // g, (x // g,), (y // g,) if y else None)
    n = len(re)
    if im is None:
        while n and not re[n - 1]:
            n -= 1
    else:
        while n and not re[n - 1] and not im[n - 1]:
            n -= 1
        im = im[:n] if any(im) else None
    if not n:
        return TPoly.ZERO
    re = re[:n]
    g = gcd(den, *re, *im) if im else gcd(den, *re)
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        re = [x // g for x in re]
        if im:
            im = [x // g for x in im]
    return TPoly._raw(den, tuple(re), None if im is None else tuple(im))


def _scalar_parts(k) -> tuple:
    """(d, a, b) with k = (a + b i) / d for ints d > 0, a, b, for an
    ExactScalar, an exponent, whose exact_parts method gives its own int
    triple or raises ExactValueRequired, or a real k that Fraction reads."""
    if isinstance(k, ExactScalar):
        re, im = k.re, k.im
        if not im:
            return re.denominator, re.numerator, 0
        d = lcm(re.denominator, im.denominator)
        return d, re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
    if hasattr(k, "exact_parts"):
        return k.exact_parts()
    k = Fraction(k)
    return k.denominator, k.numerator, 0


def _combine(x, mx: int, y, my: int) -> list:
    """mx * x + my * y elementwise, the shorter sequence padded with zeros."""
    if len(x) < len(y):
        x, mx, y, my = y, my, x, mx
    out = [mx * a for a in x] if mx != 1 else list(x)
    for k, b in enumerate(y):
        out[k] += my * b
    return out


def _convolve(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


class TPoly(Value):
    """Polynomial in t with exact complex coefficients; immutable."""

    __slots__ = ("den", "re", "im")

    def __init__(self, coeffs=()):
        """The polynomial sum coeffs[k] t^k for a sequence of ExactScalars."""
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        d = lcm(*(c.re.denominator for c in coeffs), *(c.im.denominator for c in coeffs))
        re = tuple(c.re.numerator * (d // c.re.denominator) for c in coeffs)
        im = tuple(c.im.numerator * (d // c.im.denominator) for c in coeffs)
        _set_den(self, d)
        _set_re(self, re)
        _set_im(self, im if any(im) else None)

    @staticmethod
    def _raw(den: int, re: tuple, im) -> "TPoly":
        """A TPoly from fields already in content-free form."""
        p = object.__new__(TPoly)
        _set_den(p, den)
        _set_re(p, re)
        _set_im(p, im)
        return p

    def __reduce__(self):
        return TPoly._raw, (self.den, self.re, self.im)

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_ints(den: int, re, im=None) -> "TPoly":
        """The polynomial sum (re[k] + im[k] i) / den t^k for a nonzero int
        den and int sequences re and im (im None or as long as re)."""
        return _normal(den, list(re), None if im is None else list(im))

    @staticmethod
    def of(*values) -> "TPoly":
        """TPoly.of(a0, a1, ...) with int/Fraction/str/ExactScalar entries."""
        out = []
        for v in values:
            out.append(v if isinstance(v, ExactScalar) else ExactScalar.parse(v) if isinstance(v, str) else ExactScalar.of(v))
        return TPoly(tuple(out))

    ZERO: "TPoly" = None  # set after class definition
    ONE: "TPoly" = None
    T: "TPoly" = None

    # -- queries ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as ExactScalars, lowest degree first; built on
        each read."""
        return tuple(map(self.__getitem__, range(len(self.re))))

    @property
    def degree(self):
        return len(self.re) - 1 if self.re else NEG_INF

    def is_zero(self) -> bool:
        return not self.re

    def __bool__(self) -> bool:
        return bool(self.re)

    def __getitem__(self, j: int) -> ExactScalar:
        """Coefficient j as an ExactScalar; ZERO outside 0..degree."""
        if not 0 <= j < len(self.re):
            return ZERO
        y = self.im[j] if self.im else 0
        return ExactScalar(Fraction(self.re[j], self.den), Fraction(y, self.den) if y else _ZERO_Q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.den, self.re, self.im))

    def __repr__(self) -> str:
        return f"TPoly({self})"

    # -- arithmetic --------------------------------------------------------

    def _linear(self, other: "TPoly", sign: int) -> "TPoly":
        """self + sign * other over the least common denominator."""
        da, db = self.den, other.den
        if da == db:
            ma, mb = 1, sign
        else:
            g = gcd(da, db)
            ma, mb = db // g, sign * (da // g)
        a_im, b_im = self.im, other.im
        if len(self.re) == 1 == len(other.re):
            # two constants: one Gaussian-integer sum
            im = None if a_im is None and b_im is None else (
                ma * (a_im[0] if a_im else 0) + mb * (b_im[0] if b_im else 0),)
            return _normal(da * ma, (ma * self.re[0] + mb * other.re[0],), im)
        re = _combine(self.re, ma, other.re, mb)
        if a_im is None and b_im is None:
            im = None
        else:
            im = _combine(a_im or (), ma, b_im or (), mb)
            im += [0] * (len(re) - len(im))
        return _normal(da * ma, re, im)

    def __add__(self, other: "TPoly") -> "TPoly":
        if not other.re:
            return self
        if not self.re:
            return other
        return self._linear(other, 1)

    def __sub__(self, other: "TPoly") -> "TPoly":
        if not other.re:
            return self
        return self._linear(other, -1)

    def __neg__(self) -> "TPoly":
        return TPoly._raw(
            self.den,
            tuple(-x for x in self.re),
            None if self.im is None else tuple(-y for y in self.im),
        )

    def _scale(self, d: int, a: int, b: int) -> "TPoly":
        """self * (a + b i) / d."""
        re, im = self.re, self.im
        if im is None:
            return _normal(self.den * d, [a * x for x in re], [b * x for x in re] if b else None)
        return _normal(
            self.den * d,
            [a * x - b * y for x, y in zip(re, im)],
            [a * y + b * x for x, y in zip(re, im)],
        )

    def __mul__(self, other) -> "TPoly":
        if isinstance(other, TPoly):
            if not self.re or not other.re:
                return TPoly.ZERO
            a_re, a_im, b_re, b_im = self.re, self.im, other.re, other.im
            if len(a_re) == 1 == len(b_re):
                # two constants: one Gaussian-integer product
                x, y, u, v = a_re[0], a_im[0] if a_im else 0, b_re[0], b_im[0] if b_im else 0
                im = None if a_im is None and b_im is None else (x * v + y * u,)
                return _normal(self.den * other.den, (x * u - y * v,), im)
            re = _convolve(a_re, b_re)
            if a_im is None and b_im is None:
                return _normal(self.den * other.den, re, None)
            # Gaussian-integer convolution, skipping the products of a real factor
            im = [0] * len(re)
            if a_im is not None and b_im is not None:
                re = [x - y for x, y in zip(re, _convolve(a_im, b_im))]
            if b_im is not None:
                im = _convolve(a_re, b_im)
            if a_im is not None:
                im = [x + y for x, y in zip(im, _convolve(a_im, b_re))]
            return _normal(self.den * other.den, re, im)
        if isinstance(other, ExactScalar):
            return self._scale(*_scalar_parts(other))
        if isinstance(other, int):
            return self._scale(1, other, 0)
        if isinstance(other, Fraction):
            return self._scale(other.denominator, other.numerator, 0)
        return NotImplemented

    __rmul__ = __mul__

    def deriv(self) -> "TPoly":
        re, im = self.re, self.im
        return _normal(
            self.den,
            [k * re[k] for k in range(1, len(re))],
            None if im is None else [k * im[k] for k in range(1, len(im))],
        )

    def shift_apply(self, lam) -> "TPoly":
        """Apply the operator (lam + d/dt) to this polynomial, for an
        ExactScalar, int, Fraction or exponent lam."""
        d, a, b = _scalar_parts(lam)  # an exponent is refused here even for p = 0
        if not self.re:
            return self
        re, n = self.re, len(self.re)
        dre = [d * k * re[k] for k in range(1, n)] + [0]  # d * (d/dt)
        if self.im is None:
            out_re = [a * x + y for x, y in zip(re, dre)]
            out_im = [b * x for x in re] if b else None
        else:
            im = self.im
            dim = [d * k * im[k] for k in range(1, n)] + [0]
            out_re = [a * x - b * y + z for x, y, z in zip(re, im, dre)]
            out_im = [a * y + b * x + z for x, y, z in zip(re, im, dim)]
        return _normal(self.den * d, out_re, out_im)

    def _taylor_numerators(self, z, count: int) -> tuple:
        """(D, m_re, m_im) with p^(i)(z) / i! = (m_re[i] + m_im[i] i) / D for
        i below count and the degree + 1 (one entry for the zero
        polynomial), m_im None when every entry is real.

        An integer Taylor shift: with z = w / e, the numerators of
        e^n p(t) = sum c_k e^(n-k) (e t)^k are shifted by the Gaussian
        integer w with Horner's scheme (von zur Gathen & Gerhard, ch. 4).
        Pass i leaves entry i final, so the passes stop after count entries.
        """
        e, wr, wi = _scalar_parts(z)
        re = self.re or (0,)
        im = self.im or (0,) * len(re)
        n = len(re) - 1
        count = min(count, n + 1)
        scale = [e**k for k in range(n + 1)]
        br = [x * scale[n - k] for k, x in enumerate(re)]
        bi = [y * scale[n - k] for k, y in enumerate(im)]
        for i in range(min(count, n)):
            for j in range(n - 1, i - 1, -1):
                xr, xi = br[j + 1], bi[j + 1]
                br[j] += wr * xr - wi * xi
                bi[j] += wr * xi + wi * xr
        m_im = [bi[i] * scale[i] for i in range(count)]
        return self.den * scale[n], [br[i] * scale[i] for i in range(count)], m_im if any(m_im) else None

    def __call__(self, z: ExactScalar) -> ExactScalar:
        D, m_re, m_im = self._taylor_numerators(z, 1)
        return ExactScalar(Fraction(m_re[0], D), Fraction(m_im[0], D) if m_im else _ZERO_Q)

    def taylor_at(self, z: ExactScalar) -> list:
        """Coefficients [p(z), p'(z)/1!, p''(z)/2!, ...] up to the degree."""
        D, m_re, m_im = self._taylor_numerators(z, max(len(self.re), 1))
        return [
            ExactScalar(Fraction(x, D), Fraction(y, D) if y else _ZERO_Q)
            for x, y in zip(m_re, m_im or (0,) * len(m_re))
        ]

    def solve_shifted(self, lam, b: "TPoly") -> "TPoly":
        """The unique v with L(lam + d/dt) v = b for this polynomial L;
        ZeroDivisionError when L(lam) = 0.

        Back-substitution on Gaussian integers, from the top degree D of b
        down.  With L^(i)(lam)/i! = m_i / mD, b_d = B_d / bD and
        1/m_0 = c / N (c = 1, N = m_0 for a real m_0; c = conj(m_0),
        N = |m_0|^2 otherwise), v_d = W_d / (bD N^(D-d+1)) with
        W_d = c (mD B_d N^(D-d) - sum_i m_i (d+i)!/d! W_(d+i) N^(i-1)).
        """
        # only L^(i)(lam) / i! for i <= deg b enter the back-substitution
        mD, m_re, m_im = self._taylor_numerators(lam, max(len(b.re), 1))
        m_im = m_im or [0] * len(m_re)
        if not m_re[0] and not m_im[0]:
            raise ZeroDivisionError("solve_shifted: L(lam) = 0")
        if not b.re:
            return TPoly.ZERO
        D = len(b.re) - 1
        if m_im[0]:
            N, c_re, c_im = m_re[0] ** 2 + m_im[0] ** 2, m_re[0], -m_im[0]
        else:
            N, c_re, c_im = m_re[0], 1, 0
        Np = [N**k for k in range(D + 2)]
        B_re, B_im = b.re, b.im or (0,) * (D + 1)
        W_re, W_im = [0] * (D + 1), [0] * (D + 1)
        for d in range(D, -1, -1):
            s_re, s_im = mD * B_re[d] * Np[D - d], mD * B_im[d] * Np[D - d]
            for i in range(1, min(len(m_re), D - d + 1)):
                f = prod(range(d + 1, d + i + 1)) * Np[i - 1]  # (d+i)!/d! N^(i-1)
                x_re, x_im = W_re[d + i] * f, W_im[d + i] * f
                s_re -= m_re[i] * x_re - m_im[i] * x_im
                s_im -= m_re[i] * x_im + m_im[i] * x_re
            W_re[d], W_im[d] = c_re * s_re - c_im * s_im, c_re * s_im + c_im * s_re
        # over the common denominator bD N^(D+1), v_d has numerator W_d N^d
        return _normal(
            b.den * Np[D + 1],
            [w * Np[d] for d, w in enumerate(W_re)],
            [w * Np[d] for d, w in enumerate(W_im)],
        )

    # -- formatting ---------------------------------------------------------

    def serialize(self) -> list[str]:
        """The coefficients as the literals str(ExactScalar) writes ("p/q",
        "p/q+r/si", "p/q-r/si"), formatted from the int fields."""
        d, out = self.den, []
        for x, y in zip(self.re, self.im or (0,) * len(self.re)):
            text = _rational_literal(x, d)
            if y:
                text += ("+" if y > 0 else "-") + _rational_literal(abs(y), d) + "i"
            out.append(text)
        return out

    @staticmethod
    def parse(values) -> "TPoly":
        """Polynomial from a JSON list of scalar literals, lowest degree first."""
        if not isinstance(values, list):
            raise ValueError(f"poly: coefficients must be a list, got {values!r}")
        return TPoly(tuple(ExactScalar.parse(v) for v in values))

    def __str__(self) -> str:
        if not self.re:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            parts.append(f"({c})" + ("" if j == 0 else f"*t^{j}" if j > 1 else "*t"))
        return " + ".join(parts)


_set_den, _set_re, _set_im = slot_setters(TPoly)

TPoly.ZERO = TPoly(())
TPoly.ONE = TPoly((ExactScalar.of(1),))
TPoly.T = TPoly((ZERO, ExactScalar.of(1)))
