"""Shared builders for the test suite: canonical equations and seeded random data."""

import ast
import contextlib
import csv
import io
import json
import os
import tempfile
from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import mul
from pathlib import Path

import mpmath
from mpmath.libmp import from_rational, mpf_sqrt, round_nearest

import dulac
from dulac import cli, gammafn, gevrey, norms, numeric
from dulac.errors import IndeterminateRoot
from dulac.exponents import Exponent, ExponentBasis
from dulac.gammafn import gamma_abs
from dulac.ode import ODESpec
from dulac.scalars import ExactScalar
from dulac.series import INF, DulacSeries
from dulac.solver import ReducedEquation, extend
from dulac.tpoly import TPoly

DATA = Path(__file__).parent / "data"


def child_env(**extra) -> dict:
    """The environment for a child interpreter that imports this checkout's
    dulac: its src directory goes in front of the inherited PYTHONPATH,
    which may be where the child finds mpmath and the other dependencies."""
    src, inherited = str(Path(dulac.__file__).parents[1]), os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + inherited if inherited else src, **extra)


def basis_one() -> ExponentBasis:
    return ExponentBasis(["1"])


def basis_mixed() -> ExponentBasis:
    return ExponentBasis(["1", "1+1i"])


def euler_ode() -> ODESpec:
    # x*(dy) - y + x = 0 with dy the Euler derivative; solution sum (k-1)! x^k
    return ODESpec.from_json({"n": 1, "terms": [
        {"coeff": "1/1", "x": 1, "y": [0, 1]},
        {"coeff": "-1/1", "x": 0, "y": [1, 0]},
        {"coeff": "1/1", "x": 1, "y": [0, 0]},
    ]})


def resonant_ode() -> ODESpec:
    # dy - y - x = 0; the recursion hits L(1) = 0
    return ODESpec.from_json({"n": 1, "terms": [
        {"coeff": "1/1", "x": 0, "y": [0, 1]},
        {"coeff": "-1/1", "x": 0, "y": [1, 0]},
        {"coeff": "-1/1", "x": 1, "y": [0, 0]},
    ]})


def resonant_double_ode() -> ODESpec:
    # (d - 1)^2 y = x expanded
    return ODESpec.from_json({"n": 2, "terms": [
        {"coeff": "1/1", "x": 0, "y": [0, 0, 1]},
        {"coeff": "-2/1", "x": 0, "y": [0, 1, 0]},
        {"coeff": "1/1", "x": 0, "y": [1, 0, 0]},
        {"coeff": "-1/1", "x": 1, "y": [0, 0, 0]},
    ]})


def nonlinear_ode() -> ODESpec:
    # x*(dy) - y + x + y^2 = 0
    return ODESpec.from_json({"n": 1, "terms": [
        {"coeff": "1/1", "x": 1, "y": [0, 1]},
        {"coeff": "-1/1", "x": 0, "y": [1, 0]},
        {"coeff": "1/1", "x": 1, "y": [0, 0]},
        {"coeff": "1/1", "x": 0, "y": [2, 0]},
    ]})


def convergent_ode() -> ODESpec:
    # dy - y/2 - x - x*y = 0; top-order leading coefficient is nonzero
    return ODESpec.from_json({"n": 1, "terms": [
        {"coeff": "1/1", "x": 0, "y": [0, 1]},
        {"coeff": "-1/2", "x": 0, "y": [1, 0]},
        {"coeff": "-1/1", "x": 1, "y": [0, 0]},
        {"coeff": "-1/1", "x": 1, "y": [1, 0]},
    ]})


def x_prefix(basis: ExponentBasis) -> DulacSeries:
    return DulacSeries.monomial(basis.rational(Fraction(1)), TPoly.ONE)


def interval(e, part: str) -> tuple:
    """Enclosure (lo, hi) of Re or Im (part "re" or "im") of an exponent."""
    mid = e.re_mid if part == "re" else e.im_mid
    r = e.radius(part)
    return (mid - r, mid + r)


def literal_floor(literal: str) -> Fraction:
    """Half a unit in the last decimal place of a decimal literal, counted
    off its string."""
    return Fraction(1, 2 * 10 ** len(literal.partition(".")[2]))


def enclosure_sign(mid: Fraction, rad: Fraction):
    """Sign of every number in mid +- rad, 0 for the single point 0; None
    when the interval holds 0 and other numbers."""
    if mid - rad > 0:
        return 1
    if mid + rad < 0:
        return -1
    return 0 if mid == rad == 0 else None


def random_scalar(rng, zero_ok: bool = True) -> ExactScalar:
    s = ExactScalar(
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    )
    if not zero_ok and s.is_zero():
        return ExactScalar.of(1)
    return s


def random_poly(rng, max_deg: int = 3) -> TPoly:
    coeffs = [random_scalar(rng) for _ in range(rng.randint(0, max_deg) + 1)]
    if all(c.is_zero() for c in coeffs):
        coeffs[0] = ExactScalar.of(1)
    return TPoly(tuple(coeffs))


def random_exponent(rng, basis: ExponentBasis, positive: bool = True):
    while True:
        coords = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(basis.dim)]
        e = basis.exponent(coords)
        if not positive or e.re_mid > 0:
            return e


def random_series(rng, basis: ExponentBasis, max_terms: int = 4, cutoff=INF) -> DulacSeries:
    terms = [
        (random_exponent(rng, basis), random_poly(rng))
        for _ in range(rng.randint(0, max_terms))
    ]
    return DulacSeries(basis, tuple(terms), cutoff)


def schoolbook_product(p: TPoly, q: TPoly) -> TPoly:
    """Oracle for TPoly products: the schoolbook double loop over coefficient
    pairs, with the complex product formula spelled out in Fractions."""
    if p.is_zero() or q.is_zero():
        return TPoly(())
    n = len(p.coeffs) + len(q.coeffs) - 1
    re, im = [Fraction(0)] * n, [Fraction(0)] * n
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            re[i + j] += a.re * b.re - a.im * b.im
            im[i + j] += a.re * b.im + a.im * b.re
    return TPoly(tuple(ExactScalar(x, y) for x, y in zip(re, im)))


def substitute_direct(ode: ODESpec, phi: DulacSeries, order: tuple | None = None) -> DulacSeries:
    """Unpruned oracle for ode.Evaluation's value and, given an order, its
    derivative(order), the scaled (1/order!) d^|order| F / dy^order along
    phi: each monomial coeff x^p y^q with q >= order is evaluated on its own
    as C(q, order) coeff x^p prod_j (delta^j phi)^(q_j - order_j), by
    repeated full products of the truncated factors, with no bound and no
    incremental update."""
    basis = phi.basis
    order = order or (0,) * (ode.n + 1)
    deltas = [phi]
    for _ in range(ode.n):
        deltas.append(deltas[-1].delta())
    total = DulacSeries.zero(basis)
    for coeff, p, q in ode.terms:
        if any(o > e for o, e in zip(order, q)):
            continue
        weight = prod(comb(e, o) for e, o in zip(q, order))
        acc = DulacSeries.monomial(basis.rational(p), TPoly.of(coeff * weight))
        for j, (e, o) in enumerate(zip(q, order)):
            for _ in range(e - o):
                acc = acc * deltas[j]
        total = total + acc
    if ode.declared_degree is not None:
        # an omitted monomial of degree above the declared one is a product
        # of at least degree + 1 factors x or delta^j phi, each of Re at
        # least 1 or the lower endpoint of phi's leading exponent; with no
        # known term, phi may have a term at its cutoff
        low = phi.terms[0][0].re_low if phi.terms else phi.cutoff
        degree = max(ode.declared_degree - sum(order), 0)
        cap = (degree + 1) * min(Fraction(1), low)
        total = total.truncate(min(total.cutoff, cap))
    return total


def reduced_residual(red: ReducedEquation, psi: DulacSeries) -> DulacSeries:
    """Oracle for solver.ReducedEquation: the reduced equation evaluated at a
    tail candidate psi, by full series products."""
    lam_v = red.lambda_m.value()
    basis = psi.basis

    powers = {0: psi}

    def op(j):
        if j not in powers:
            u = op(j - 1)
            powers[j] = u.delta() + u * lam_v
        return powers[j]

    acc = DulacSeries.zero(basis, psi.cutoff)
    for i, coeff in enumerate(red.L.coeffs):
        if not coeff.is_zero():
            acc = acc + op(i) * coeff
    for j, g in red.Ltilde:
        acc = acc + g * op(j)
    for q, aq in red.N:
        k = sum(q)
        term = aq.shift(red.tau * k)
        for j, e in enumerate(q):
            for _ in range(e):
                term = term * op(j)
        acc = acc + term
    return acc


def code_lines(text: str) -> int:
    """The code lines of a Python source: every line that is not blank,
    comment-only or part of a docstring (the first statement of a module,
    class or function, when it is a string)."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        first = body[0] if isinstance(body, list) and body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#") and i not in docstrings)


def line_counts(root) -> list:
    """(module file name, lines, code lines) for each .py file of the
    directory root, by name: the source size CI reports for src/dulac."""
    rows = []
    for path in sorted(Path(root).glob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows.append((path.name, len(text.splitlines()), code_lines(text)))
    return rows


def json_text_oracle(payload) -> str:
    """The JSON artifact format by the standard library: what cli._json_text
    writes, byte for byte."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def csv_text_oracle(header, rows) -> str:
    """The CSV artifact format by the csv module: what cli._csv_text writes,
    byte for byte."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# the tests/data runs whose exact work per extend the op-count tests pin
PINNED_RUNS = (("semigroup_2d.json", 7), ("nonlinear.json", 30), ("euler.json", 80))


def extend_counts(name: str, cutoff) -> dict:
    """The exact work of one extend of the tests/data problem name to
    cutoff, as noise-free cost signals: "products" and "sums" of TPolys,
    "tpolys" built (TPoly._raw calls), "exponents" built (Exponent._raw
    calls), "compared", the Python-level Exponent.__eq__ calls (a dict
    lookup that matches by identity makes none), and "lazy", the
    Exponent.__getattr__ entries (each a failed slot read before a lazy
    field is built).  Only the extend is counted, not the loading of the
    problem, and the counted methods are restored afterwards."""
    data = json.loads((DATA / name).read_text(encoding="utf-8"))
    basis = ExponentBasis(data["basis"])
    F = ODESpec.from_json(data["ode"])
    prefix = DulacSeries.from_json({"terms": data["prefix"]}, basis)
    counted = {(TPoly, "__mul__"): "products", (TPoly, "__add__"): "sums", (TPoly, "_raw"): "tpolys",
               (Exponent, "_raw"): "exponents", (Exponent, "__eq__"): "compared",
               (Exponent, "__getattr__"): "lazy"}
    counts = dict.fromkeys(counted.values(), 0)
    saved = {(cls, attr): cls.__dict__[attr] for cls, attr in counted}

    def wrap(f, key):
        def wrapper(*args):
            counts[key] += 1
            return f(*args)
        return wrapper

    try:
        for (cls, attr), key in counted.items():
            f = saved[cls, attr]
            setattr(cls, attr, staticmethod(wrap(f.__func__, key)) if isinstance(f, staticmethod) else wrap(f, key))
        extend(F, prefix, cutoff)
    finally:
        for (cls, attr), f in saved.items():
            setattr(cls, attr, f)
    return counts


# the CLI runs whose float work the op-count tests pin: (command, problem, flags)
FLOAT_RUNS = (("verify", "nonlinear.json", "--cutoff", "20"), ("check-norms", "euler_gens.json", "--seed", "7"),
              ("reduce", "resonant_double.json"))
# the memos of the float layer, cleared before a run counted or timed from cold
FLOAT_MEMOS = (norms._table, norms._gammas, numeric._norm_powers, numeric._sqrt_rational)
_FLOAT_OPS = {"gamma": "gamma_abs", "raw_add": "raw_add", "raw_mul": "raw_mul", "raw_div": "raw_div",
              "raw_pow": "raw_pow", "workprec": "workprec"}


def float_counts(command: str, name: str, *flags: str) -> dict:
    """The float work of one CLI run of command on the tests/data problem
    name, from cold memos, as noise-free cost signals: "gamma", the
    gamma_abs evaluations; "roots", the root-kernel evaluations
    (_sqrt_rational memo misses); "raw_add", "raw_mul", "raw_div" and
    "raw_pow", the raw mpf operations; and "workprec", the
    mpmath.workprec entries.  The run writes to a temporary directory and
    its stdout is dropped; the counted functions are restored afterwards."""
    for memo in FLOAT_MEMOS:
        memo.cache_clear()
    counts = dict.fromkeys(_FLOAT_OPS, 0)
    saved = [(mod, attr, key, vars(mod)[attr]) for key, attr in _FLOAT_OPS.items()
             for mod in (gammafn, gevrey, norms, numeric, mpmath) if attr in vars(mod)]

    def wrap(f, key):
        def wrapper(*args):
            counts[key] += 1
            return f(*args)
        return wrapper

    try:
        for mod, attr, key, f in saved:
            setattr(mod, attr, wrap(f, key))
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([command, str(DATA / name), *flags, "--output-dir", out]) == 0
    finally:
        for mod, attr, _, f in saved:
            setattr(mod, attr, f)
    return dict(counts, roots=numeric._sqrt_rational.cache_info().misses)


# -- ExactScalar-formula oracles for TPoly ----------------------------------
# Each works coefficient by coefficient on ExactScalars, with the formulas a
# TPoly of ExactScalar coefficients would use, and builds its result through
# the public TPoly(tuple_of_ExactScalar) constructor.


def poly_linear_oracle(p: TPoly, q: TPoly, sign: int) -> TPoly:
    """p + sign * q for sign = +1 or -1."""
    n = max(len(p.coeffs), len(q.coeffs))
    return TPoly(tuple(p[j] + q[j] * sign for j in range(n)))


def poly_scale_oracle(p: TPoly, k) -> TPoly:
    """p * k for an ExactScalar, int or Fraction k."""
    k = k if isinstance(k, ExactScalar) else ExactScalar.of(k)
    return TPoly(tuple(c * k for c in p.coeffs))


def poly_deriv_oracle(p: TPoly) -> TPoly:
    return TPoly(tuple(c * j for j, c in enumerate(p.coeffs) if j > 0))


def poly_shift_apply_oracle(p: TPoly, lam: ExactScalar) -> TPoly:
    """(lam + d/dt) p."""
    return poly_linear_oracle(poly_scale_oracle(p, lam), poly_deriv_oracle(p), 1)


def poly_value_oracle(p: TPoly, z: ExactScalar) -> ExactScalar:
    """p(z) by Horner's rule over ExactScalars."""
    acc = ExactScalar.of(0)
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def poly_taylor_oracle(p: TPoly, z: ExactScalar) -> list:
    """[p(z), p'(z)/1!, p''(z)/2!, ...] up to the degree; [0] for p = 0."""
    out, i, fact = [], 0, 1
    while True:
        out.append(poly_value_oracle(p, z) * Fraction(1, fact))
        p = poly_deriv_oracle(p)
        if p.is_zero():
            return out
        i += 1
        fact *= i


def poly_serialize_oracle(p: TPoly) -> list:
    """TPoly.serialize from the ExactScalar coefficients: str of each."""
    return [str(c) for c in p.coeffs]


def exponent_serialize_oracle(e) -> list:
    """Exponent.serialize from the Fraction coordinates."""
    return [f"{c.numerator}/{c.denominator}" for c in e.coords]


def exponent_parts_oracle(e) -> tuple:
    """The parts (d, a, b) of e, by the int formula over the basis weights."""
    b = e.basis
    d = e.den * b._weight_den
    x, y = sum(map(mul, e.nums, b._re_weights)), sum(map(mul, e.nums, b._im_weights))
    g = gcd(d, x, y)
    return (d // g, x // g, y // g)


def exponent_key_oracle(e) -> tuple:
    """The exact-basis sort key of e, its value (Re, Im) summed in Fractions
    from the coordinates and the entries, each part as an int when
    integral."""
    parts = (sum((c * b.re for c, b in zip(e.coords, e.basis.entries)), Fraction(0)),
             sum((c * b.im for c, b in zip(e.coords, e.basis.entries)), Fraction(0)))
    return tuple(q.numerator if q.denominator == 1 else q for q in parts)


def read_oracle(x) -> mpmath.mpf:
    """An int or Fraction as an mpf by mpmath's own reader: mpmathify inside
    mpmath.workprec(128), which rounds a Fraction down to 128 bits."""
    with mpmath.workprec(128):
        return mpmath.mpmathify(x)


def abs_oracle(c: ExactScalar) -> mpmath.mpf:
    """|a + bi| as mpmath.sqrt of the exact a^2 + b^2 read by read_oracle,
    inside mpmath.workprec(128)."""
    with mpmath.workprec(128):
        return mpmath.sqrt(read_oracle(c.abs_squared()))


def poly_norm_oracle(p: TPoly, R):
    """Weighted norm sum |a_j| R^j at 128 bits, each |a_j| from
    abs_oracle; a float R is read at its repr."""
    Rq = Fraction(repr(R)) if isinstance(R, float) else Fraction(R)
    with mpmath.workprec(128):
        Rm = read_oracle(Rq)
        acc, power = mpmath.mpf(0), mpmath.mpf(1)
        for c in p.coeffs:
            if not c.is_zero():
                acc += abs_oracle(c) * power
            power *= Rm
        return acc


def sqrt_rational_oracle(num: int, den: int) -> tuple:
    """sqrt(num / den) as a raw mpf value by mpmath's own two roundings: the
    quotient rounded down to 128 bits, then the root rounded to nearest."""
    return mpf_sqrt(from_rational(num, den, 128), 128, round_nearest)


def spouge_coeffs_oracle() -> list:
    """The Spouge series coefficients of dulac.gammafn (a = 15), computed by
    mpf arithmetic at 144 bits."""
    with mpmath.workprec(144):
        cs = [mpmath.sqrt(2 * mpmath.pi)]
        for k in range(1, 15):
            ck = mpmath.mpf(-1) ** (k - 1) / mpmath.factorial(k - 1)
            ck *= mpmath.power(15 - k, k - mpmath.mpf(1) / 2)
            ck *= mpmath.exp(15 - k)
            cs.append(ck)
    return cs


def gamma_abs_oracle(z: ExactScalar) -> mpmath.mpf:
    """|Gamma(z)| for Re z > 0 by the Spouge series of dulac.gammafn, written
    with mpf/mpc objects inside mpmath.workprec(144)."""
    cs = spouge_coeffs_oracle()
    with mpmath.workprec(144):
        z = mpmath.mpc(mpmath.mpmathify(z.re), mpmath.mpmathify(z.im))
        shift = mpmath.mpf(1)
        while mpmath.re(z) < 1:
            shift *= abs(z)
            z = z + 1
        w = z + 15 - 1
        zm1 = z - 1
        s = cs[0]
        for k in range(1, 15):
            s += cs[k] / (zm1 + k)
        val = abs(mpmath.power(w, z - mpmath.mpf(1) / 2)) * mpmath.exp(-mpmath.re(w)) * abs(s)
        return val / shift


def gevrey_oracle(terms, s, R) -> tuple:
    """The rho of each row of gevrey.classify, the fit (C, A) and the
    envelope C * A^x at each row, in mpf arithmetic at 128 bits: each norm
    from poly_norm_oracle, each |Gamma| from gamma_abs_oracle."""
    with mpmath.workprec(128):
        rhos, xs = [], []
        for k, (lam, c) in enumerate(terms, start=1):
            g = mpmath.mpf(1) if s == INF else gamma_abs_oracle(ExactScalar(lam.re_mid / s, lam.im_mid / s))
            rhos.append(poly_norm_oracle(c, R) / g)
            xs.append(lam.re_mid if s == INF else k)
        vals = [(x, r) for x, r in zip(xs, rhos) if r != 0]
        A = mpmath.mpf(1)
        for (x1, r1), (x2, r2) in zip(vals, vals[1:]):
            if x2 != x1:
                A = max(A, (r2 / r1) ** (1 / read_oracle(x2 - x1)))
        C = max([r / A ** read_oracle(x) for x, r in vals], default=mpmath.mpf(0))
        return rhos, C, A, [C * A ** read_oracle(x) for x in xs]


# The mpf-object splitting conditions that numeric ran before its one pass on
# raw values: every root re-scanned for each prefix exponent.


def roots_of_L_oracle(L: TPoly) -> list:
    """numeric.roots_of_L on mpc objects, each coefficient read by
    read_oracle from its ExactScalar."""
    d = L.degree
    if d < 1:
        return []
    with mpmath.workprec(128):
        cs = [mpmath.mpc(read_oracle(c.re), read_oracle(c.im)) for c in L.coeffs]
        if d == 1:
            return [-cs[0] / cs[1]]
        if d == 2:
            a, b, c = cs[2], cs[1], cs[0]
            disc = mpmath.sqrt(b * b - 4 * a * c)
            return [(-b + disc) / (2 * a), (-b - disc) / (2 * a)]
        return list(mpmath.polyroots(list(reversed(cs)), maxsteps=200, extraprec=64))


def check_conditions_oracle(lin, prefix_exponents, s) -> numeric.ConditionReport:
    """numeric.check_conditions with a minimum over the roots for each
    prefix exponent, in mpf arithmetic inside mpmath.workprec(128)."""
    if not prefix_exponents:
        raise ValueError("check_conditions: prefix must contain at least one term")
    roots = roots_of_L_oracle(lin.L)
    tau = lin.tau_re(s)
    sec_res = [e.re_mid for e in lin.nu_sec if e is not None]

    def roots_check(lam_re: Fraction):
        if not roots:
            return True, None
        with mpmath.workprec(128):
            lam_mpf = read_oracle(lam_re)
            margins = [lam_mpf - mpmath.re(r) for r in roots]
            m = min(margins)
            if abs(m) < read_oracle(Fraction(1, 10**20)):
                raise IndeterminateRoot(
                    f"check_conditions: a root of L has real part within 1e-20 of "
                    f"Re lambda_m = {lam_re}; raise precision or treat as resonant"
                )
            return bool(m > 0), float(m)

    def gap_check(lam_re: Fraction):
        if not sec_res:
            return True, None
        margin = lam_re - max(sec_res) - 2 * tau
        return margin > 0, float(margin)

    minimal_m = None
    for i, lam in enumerate(prefix_exponents, start=1):
        try:
            ok1, _ = roots_check(lam.re_mid)
        except IndeterminateRoot:
            ok1 = False
        ok2, _ = gap_check(lam.re_mid)
        if ok1 and ok2:
            minimal_m = i
            break

    lam_last = prefix_exponents[-1]
    roots_ok, root_margin = roots_check(lam_last.re_mid)
    gap_ok, gap_margin = gap_check(lam_last.re_mid)
    return numeric.ConditionReport(
        roots_ok=roots_ok,
        gap_ok=gap_ok,
        root_margin=root_margin,
        gap_margin=gap_margin,
        minimal_m=minimal_m,
        roots=tuple(roots),
    )


# -- Fraction Gauss-Jordan oracles for the semigroup layer --------------------
# The rational elimination semigroup ran before its one Hermite reduction.


def _rref(rows: list) -> tuple:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve_unique(columns: list, rhs: list):
    """Solve M x = rhs where M is given by columns; None when inconsistent.

    Assumes the columns are linearly independent (unique solution if any).
    """
    ncols = len(columns)
    nrows = len(rhs)
    aug = [[columns[j][i] for j in range(ncols)] + [rhs[i]] for i in range(nrows)]
    rows, pivots = _rref(aug)
    if ncols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    # verify: guards against an underdetermined system slipping through
    for i in range(nrows):
        if sum(columns[j][i] * x[j] for j in range(ncols)) != rhs[i]:
            return None
    return x


def nullspace_vector(columns: list):
    """A nonzero rational x with sum_j x_j * columns[j] = 0, or None."""
    ncols = len(columns)
    nrows = len(columns[0]) if columns else 0
    mat = [[columns[j][i] for j in range(ncols)] for i in range(nrows)]
    rows, pivots = _rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    f = free[0]
    x = [Fraction(0)] * ncols
    x[f] = Fraction(1)
    for r, c in enumerate(pivots):
        x[c] = -rows[r][f]
    return x


def _to_integer_vector(x: list) -> list:
    denom = lcm(*(v.denominator for v in x)) if x else 1
    ints = [int(v * denom) for v in x]
    g = gcd(*ints) or 1
    return [v // g for v in ints]


def relation_witness_oracle(rs):
    """The witness validate_generators reports for generators rs with
    positive real parts, or None when they are independent."""
    null = nullspace_vector([list(g.coords) for g in rs])
    return None if null is None else _to_integer_vector(null)


def decompose_oracle(lam, gens):
    """semigroup.decompose by Fraction elimination."""
    if lam.basis != gens.basis:
        return None
    x = solve_unique([list(g.coords) for g in gens.r], list(lam.coords))
    if x is None or not any(x) or any(v.denominator != 1 or v < 0 for v in x):
        return None
    return tuple(int(v) for v in x)


# -- memo-free graded-norm oracles: every constant recomputed on each use ------
# The mpf-object arithmetic inside mpmath.workprec(128) that mseries ran before
# its norms moved to raw mpmath.libmp values.


def _m_parts_oracle(gens, m) -> tuple:
    re = sum((Fraction(mi) * ri.re_mid for mi, ri in zip(m, gens.r)), Fraction(0))
    im = sum((Fraction(mi) * ri.im_mid for mi, ri in zip(m, gens.r)), Fraction(0))
    return re, im


def gamma_oracle(gens, m, p):
    """|Gamma(<m,r>/s)|."""
    re, im = _m_parts_oracle(gens, m)
    return gamma_abs(ExactScalar(re / p.s, im / p.s))


def weight_oracle(gens, lambda_base, m, p):
    """|lambda_base + <m,r>| + Kcal |m| at 128 bits."""
    re, im = _m_parts_oracle(gens, m)
    lam = ExactScalar(lambda_base.re_mid + re, lambda_base.im_mid + im)
    with mpmath.workprec(128):
        return abs_oracle(lam) + read_oracle(p.Kcal) * sum(m)


def weight_pow_oracle(gens, lambda_base, m, e: int, p):
    """The weight of m to the power e at 128 bits; 1, with no weight
    computed, for e = 0."""
    if not e:
        return mpmath.mpf(1)
    with mpmath.workprec(128):
        return weight_oracle(gens, lambda_base, m, p) ** e


def h_norm_oracle(g, p, level=None):
    j = p.j if level is None else level
    with mpmath.workprec(128):
        acc = mpmath.mpf(0)
        for m, c in g.terms:
            w = weight_pow_oracle(g.gens, g.lambda_base, m, j, p)
            acc += w / gamma_oracle(g.gens, m, p) * poly_norm_oracle(c, p.R)
        return acc


def _gamma_ratio_oracle(gens, a, b, p):
    msum = tuple(x + y for x, y in zip(a, b))
    return gamma_oracle(gens, a, p) * gamma_oracle(gens, b, p) / gamma_oracle(gens, msum, p)


def lemma6_oracle(g1, g2, p) -> tuple:
    """(lhs, rhs, C_used) of check_lemma6."""
    with mpmath.workprec(128):
        ratios = [_gamma_ratio_oracle(g1.gens, a, b, p) for a, _ in g1.terms for b, _ in g2.terms]
        C = max(ratios, default=mpmath.mpf(1))
        lhs = h_norm_oracle(g1 * g2, p, 0)
        rhs = C * h_norm_oracle(g1, p, 0) * h_norm_oracle(g2, p, 0)
    return lhs, rhs, C


def lemma5_oracle(a: TPoly, l, j: int, g, p) -> tuple:
    """(lhs, bound, A_tilde) of check_lemma5 (preconditions assumed)."""
    h = g
    for _ in range(j):
        h = h.base_delta()
    h = h.mul_poly(a).shift_m(l)
    with mpmath.workprec(128):
        lhs = h_norm_oracle(h, p, 0)
        na = poly_norm_oracle(a, p.R)
        A = mpmath.mpf(0)
        for m, _ in g.terms:
            msum = tuple(x + y for x, y in zip(m, l))
            w = weight_pow_oracle(g.gens, g.lambda_base, m, j - p.j, p)
            cand = na * gamma_oracle(g.gens, m, p) / gamma_oracle(g.gens, msum, p) * w
            A = max(A, cand)
        bound = A * h_norm_oracle(g, p, p.j)
    return lhs, bound, A


def majorant_oracle(coeffs: dict, rho, tail_norms, gens, p):
    """majorant_bound; a float rho or tail norm is read at its repr."""
    rho = Fraction(repr(rho)) if isinstance(rho, float) else Fraction(rho)
    tail_norms = [Fraction(repr(v)) if isinstance(v, float) else Fraction(v) for v in tail_norms]
    pms = [pm for pm, _ in coeffs if any(pm)]
    with mpmath.workprec(128):
        pairs = [(a, b) for i, a in enumerate(pms) for b in pms[i:]]
        C = max([mpmath.mpf(1), *(_gamma_ratio_oracle(gens, a, b, p) for a, b in pairs)])
        acc = mpmath.mpf(0)
        for (pm, qm), a in sorted(coeffs.items()):
            na = poly_norm_oracle(a, p.R)
            if any(pm):
                na = na / gamma_oracle(gens, pm, p)
            term = na * read_oracle(rho) ** sum(pm) * C ** sum(qm)
            for ni, qi in zip(tail_norms, qm):
                term *= read_oracle(ni) ** qi
            acc += term
        return acc


def norm_draws_oracle(rng, gens, s, Kcal) -> None:
    """Draw from rng, with randint and randrange, every number the
    check-norms trials draw over gens with order s and degree constant Kcal,
    in their order, and nothing else: the base exponent; two random tails
    for each of 40 product trials; level, j, a shift l that meets the slope
    gate (j - level) s, a polynomial of degree at most min(2, Kcal |l|) and a
    tail of degrees min(2, Kcal |m|) for each of 25 operator trials; a level
    and a tail of constants for each of 8 gate rejections; and lo, hi and
    rho for each of 5 majorant trials."""
    kappa = gens.kappa

    def poly(max_deg):
        for _ in range(rng.randint(0, max_deg) + 1):
            rng.randint(-4, 4), rng.randint(1, 3), rng.randint(-2, 2), rng.randint(1, 3)

    def tail(max_deg_for):
        for _ in range(rng.randint(1, 4)):
            m = tuple(rng.randint(0, 3) for _ in range(kappa))
            if not any(m):
                one = rng.randrange(kappa)
                m = tuple(int(i == one) for i in range(kappa))
            poly(max_deg_for(m))

    def re_of(m):
        return _m_parts_oracle(gens, m)[0]

    def cap(m):
        return min(2, int(Fraction(Kcal) * sum(m)))

    rng.randint(0, 3)
    for _ in range(40):
        tail(lambda m: 2)
        tail(lambda m: 2)
    for _ in range(25):
        level = rng.randint(0, 1)
        j = level + rng.randint(0, 1)
        if (j - level) * s > re_of((2,) * kappa):
            j = level
        while True:
            l = tuple(rng.randint(0, 2) for _ in range(kappa))
            if any(l) and re_of(l) >= (j - level) * s:
                break
        poly(cap(l))
        tail(cap)
    for _ in range(8):
        rng.randint(0, 1)
        tail(lambda m: 0)
    for _ in range(5):
        rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 4)


# -- closed-form coefficient recursions of two equation families ---------------
#
# They use no dulac type: a complex rational is a pair (re, im) of Fractions
# and a polynomial in t = log x is a list of such pairs, lowest degree first,
# with no trailing zero.  delta = x d/dx acts on c(t) x^lam as (lam + d/dt).


def _cmul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ptrim(p: list) -> list:
    while p and p[-1] == (0, 0):
        p = p[:-1]
    return p


def _padd(p: list, q: list) -> list:
    if len(p) < len(q):
        p, q = q, p
    return _ptrim([(x[0] + y[0], x[1] + y[1]) for x, y in zip(p, q)] + p[len(q):])


def _pmul(p: list, q: list) -> list:
    out = [(Fraction(0), Fraction(0))] * (len(p) + len(q) - 1) if p and q else []
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            z = _cmul(x, y)
            out[i + j] = (out[i + j][0] + z[0], out[i + j][1] + z[1])
    return _ptrim(out)


def _solve_real_shift(mu: int, r: list) -> list:
    """c with (mu + d/dt) c = r for an int mu != 0: the finite Neumann
    series c = sum_i (-1)^i r^(i) / mu^(i+1), r^(i) the i-th t-derivative."""
    c, term, i = [], r, 0
    while term:
        scale = Fraction((-1) ** i, mu ** (i + 1))
        c = _padd(c, [(x * scale, y * scale) for x, y in term])
        term = [(k * x, k * y) for k, (x, y) in enumerate(term) if k]
        i += 1
    return c


def factorial_oracle(a: Fraction, b: Fraction, cutoff) -> list:
    """The terms (k, c_k), k < cutoff, of the solution of
    x delta y - y + a x + b y^2 = 0 over the basis ["1"], from the empty
    prefix or from a x.

    With y = sum_{k >= 1} c_k x^k, x delta y = sum_k (k - 1) c_(k-1) x^k, so
    the coefficient of x^k reads
    (k - 1) c_(k-1) - c_k + a [k = 1] + b sum_{i + j = k} c_i c_j = 0:
    c_1 = a and c_k = (k - 1) c_(k-1) + b sum_{i + j = k} c_i c_j.  a = 1
    gives c_k = (k - 1)! for b = 0 and a faster factorial growth for b = 1.
    Zero coefficients are left out, as a series leaves them out."""
    c = {1: Fraction(a)}
    k = 2
    while k < cutoff:
        c[k] = (k - 1) * c[k - 1] + b * sum(c[i] * c[k - i] for i in range(1, k))
        k += 1
    return [(k, v) for k, v in sorted(c.items()) if v and k < cutoff]


def log_resonant_oracle(a: Fraction, b: Fraction, cutoff) -> list:
    """The terms (k, c_k), k < cutoff, of the solution of
    delta y - y - a x - b y^2 = 0 over the basis ["1"] with the prefix a t x.

    At x^1 the prefix meets the resonance L(1) = 0 (L(zeta) = zeta - 1):
    (1 + d/dt)(a t) - a t = a cancels -a x.  At x^k, k >= 2, the equation
    reads (k - 1 + d/dt) c_k = b sum_{i + j = k} c_i c_j, so deg c_k = k.
    Zero coefficients are left out, as a series leaves them out."""
    c = {1: _ptrim([(Fraction(0), Fraction(0)), (Fraction(a), Fraction(0))])}
    k = 2
    while k < cutoff:
        square = []
        for i in range(1, k):
            square = _padd(square, _pmul(c[i], c[k - i]))
        c[k] = _solve_real_shift(k - 1, [(b * x, b * y) for x, y in square])
        k += 1
    return [(k, p) for k, p in sorted(c.items()) if p and k < cutoff]


def semigroup_2d_oracle(a: Fraction, b: Fraction, c: Fraction, cutoff) -> list:
    """The terms ((p, q), c_pq), p + q < cutoff, of the solution of
    delta y - (1+i) y - a x y - b y^2 = 0 over the basis ["1", "1+1i"] with
    the prefix c x^(1+i), lam = p + q (1+i), ordered by Re = p + q and then
    Im = q.

    L(zeta) = zeta - (1+i) vanishes at the prefix exponent only (p, q) =
    (0, 1), where c is free; every other coefficient is a constant with
    (p + (q - 1)(1+i)) c_pq = a c_(p-1)q + b sum c_(p1 q1) c_(p2 q2) over
    p1 + p2 = p, q1 + q2 = q, q1, q2 >= 1."""
    coef = {(0, 1): (Fraction(c), Fraction(0))}
    total = 2
    while total < cutoff:
        for q in range(1, total + 1):
            p = total - q
            rhs = _cmul((Fraction(a), Fraction(0)), coef.get((p - 1, q), (0, 0)))
            for p1 in range(p + 1):
                for q1 in range(1, q):
                    z = _cmul(coef.get((p1, q1), (0, 0)), coef.get((p - p1, q - q1), (0, 0)))
                    rhs = (rhs[0] + b * z[0], rhs[1] + b * z[1])
            mu = (p + q - 1, q - 1)  # L(lam) = lam - (1+i)
            norm = mu[0] ** 2 + mu[1] ** 2
            coef[(p, q)] = _cmul(rhs, (Fraction(mu[0], norm), Fraction(-mu[1], norm)))
        total += 1
    return [
        (pq, [v]) for pq, v in sorted(coef.items(), key=lambda item: (sum(item[0]), item[0][1]))
        if v != (0, 0) and sum(pq) < cutoff
    ]
