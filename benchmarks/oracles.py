"""Independent coefficient recursions for the benchmark's equations.

Each oracle lists the exact terms (exponent coordinates, polynomial in
t = ln x) of the solution below a cutoff, ordered by real part and then
imaginary part, computed directly from the equation's coefficient recursion
with Fractions.  They share no code with dulac.  A complex rational is a
pair (re, im) of Fractions; a polynomial is a tuple of them, lowest degree
first, with no trailing zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

ZERO = (Fraction(0), Fraction(0))


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cdiv(x, y):
    d = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d)


def real(q) -> tuple:
    return (Fraction(q), Fraction(0))


def pstrip(p) -> tuple:
    p = list(p)
    while p and p[-1] == ZERO:
        p.pop()
    return tuple(p)


def padd(p, q) -> tuple:
    n = max(len(p), len(q))
    return pstrip(cadd(p[i] if i < len(p) else ZERO, q[i] if i < len(q) else ZERO) for i in range(n))


def pmul(p, q) -> tuple:
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = cadd(out[i + j], cmul(a, b))
    return pstrip(out)


def pscale(p, k) -> tuple:
    return pstrip(cmul(a, k) for a in p)


def pderiv(p) -> tuple:
    return pstrip(cmul(a, real(j)) for j, a in enumerate(p) if j > 0)


def solve_shift(lam, rhs) -> tuple:
    """The polynomial c with lam*c + c' = rhs, for lam != 0."""
    out, term, sign = (), rhs, 1
    power = lam
    while term:
        out = padd(out, pscale(term, cdiv(real(sign), power)))
        term, sign, power = pderiv(term), -sign, cmul(power, lam)
    return out


class Oracle:
    """Solution terms of one problem; `basis` holds the (re, im) of each entry."""

    basis: tuple = (real(1),)

    def re(self, e) -> Fraction:
        return sum((c * b[0] for c, b in zip(e, self.basis)), Fraction(0))

    def im(self, e) -> Fraction:
        return sum((c * b[1] for c, b in zip(e, self.basis)), Fraction(0))

    def coefficients(self, cutoff) -> dict:
        raise NotImplementedError

    def terms(self, cutoff) -> list:
        coeffs = self.coefficients(Fraction(cutoff))
        keep = [(e, p) for e, p in coeffs.items() if p and self.re(e) < cutoff]
        return sorted(keep, key=lambda ep: (self.re(ep[0]), self.im(ep[0])))

    @staticmethod
    def multi_index(e, base) -> tuple:
        """Coordinates of e - base over generators equal to the basis vectors."""
        m = tuple(x - y for x, y in zip(e, base))
        if any(v.denominator != 1 or v < 0 for v in m):
            raise ValueError(f"{e} - {base} is not a semigroup member")
        return tuple(int(v) for v in m)


class Factorial(Oracle):
    """x dy - y + x = 0 with y = x + ...: c_k = (k-1)! at x^k."""

    def coefficients(self, cutoff):
        return {(Fraction(k),): (real(factorial(k - 1)),) for k in range(1, int(cutoff) + 1)}


class FactorialNonlinear(Oracle):
    """x dy - y + x + y^2 = 0 with y = x + ...:
    c_1 = 1 and c_n = (n-1) c_{n-1} + sum_{i+j=n} c_i c_j."""

    def coefficients(self, cutoff):
        c = {1: Fraction(1)}
        for n in range(2, int(cutoff) + 1):
            c[n] = (n - 1) * c[n - 1] + sum(c[i] * c[n - i] for i in range(1, n))
        return {(Fraction(n),): (real(v),) for n, v in c.items()}


class LogResonant(Oracle):
    """dy - y - a x - b y^2 = 0 with y = a t x + ...: at x^k, k >= 2,
    (k-1) c_k + c_k' = b sum_{i+j=k} c_i c_j."""

    def __init__(self, a: Fraction, b: Fraction):
        self.a, self.b = a, b

    def coefficients(self, cutoff):
        c = {1: (ZERO, real(self.a))}
        for k in range(2, int(cutoff) + 1):
            rhs = ()
            for i in range(1, k):
                rhs = padd(rhs, pmul(c[i], c[k - i]))
            c[k] = solve_shift(real(k - 1), pscale(rhs, real(self.b)))
        return {(Fraction(k),): p for k, p in c.items()}


class Semigroup2D(Oracle):
    """dy - (1+i) y - a x y - b y^2 = 0 with y = c x^(1+i) + ..., over the
    basis (1, 1+i).  The term x^((1+i) + p + r(1+i)) has coefficient
    c_{p,r} = (a c_{p-1,r} + b sum c_{p1,r1} c_{p2,r2}) / (p + r(1+i)),
    the sum over p1+p2 = p, r1+r2 = r-1; no logarithms arise."""

    basis = (real(1), (Fraction(1), Fraction(1)))

    def __init__(self, a: Fraction, b: Fraction, c: Fraction):
        self.a, self.b, self.c = a, b, c

    def coefficients(self, cutoff):
        # Re of the (p, r) term is 1 + p + r.
        top = int(cutoff)
        c = {(0, 0): real(self.c)}
        for total in range(1, top):
            for r in range(total + 1):
                p = total - r
                acc = cmul(real(self.a), c[(p - 1, r)]) if p else ZERO
                if r:
                    for p1 in range(p + 1):
                        for r1 in range(r):
                            acc = cadd(acc, cmul(real(self.b), cmul(c[(p1, r1)], c[(p - p1, r - 1 - r1)])))
                c[(p, r)] = cdiv(acc, (Fraction(p + r), Fraction(r)))
        return {
            (Fraction(p), Fraction(r + 1)): pstrip((v,)) for (p, r), v in c.items()
        }
