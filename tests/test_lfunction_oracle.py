"""End-to-end oracle: slope multisets recomputed from the defining sums.

For small supports and primes this assembles the L-polynomial literally:
character sums over the torus points of small extension fields, the
exponential generating series, and coefficient valuations read off inside
the cyclotomic integer ring. For an n-point support the resulting slope
multiset must match the group-orbit computation exactly; for a general
support its polygon must equal the Hodge polygon where the facial verdict
is ordinary, and lie on or above it with the same endpoint otherwise
(Adolphson and Sperber 1989; Wan 1993). Nothing here shares code with the
orbit walk, the digit-sum formula or the Hodge count.
"""

import itertools
from fractions import Fraction

import pytest

np = pytest.importorskip("numpy")

from npoly import decompose as dc
from npoly import diagonal as dg
from npoly import exactmath as xm
from npoly import polytope as pt
from oracles import solve_unique


# ---------------------------------------------------------------------------
# exact arithmetic in Z[zeta_p], basis zeta^0 .. zeta^(p-2)


class Cyclotomic:
    """Vectors of rationals in the power basis, with zeta^(p-1) = -sum."""

    def __init__(self, p):
        self.p = p
        self.dim = p - 1
        self.zero = (Fraction(0),) * self.dim
        self.one = self.zeta_power(0)
        cols = [self._shift(self._basis(j)) for j in range(self.dim)]
        # multiplication by (1 - zeta) as an integer matrix
        self._lam = xm.IntMatrix.from_columns(
            [[int(b - s) for b, s in zip(self._basis(j), col)] for j, col in enumerate(cols)]
        )

    def _basis(self, j):
        return tuple(Fraction(int(i == j)) for i in range(self.dim))

    def _shift(self, vec):
        """Multiply by zeta."""
        out = [Fraction(0)] * self.dim
        top = vec[self.dim - 1]
        for i in range(self.dim - 1):
            out[i + 1] = vec[i]
        if top:
            # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
            out = [c - top for c in out]
        return tuple(out)

    def zeta_power(self, t):
        t %= self.p
        if t < self.dim:
            return self._basis(t)
        return tuple(Fraction(-1) for _ in range(self.dim))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        out = [Fraction(0)] * self.dim
        cur = b
        for coeff in a:
            if coeff:
                out = [o + coeff * c for o, c in zip(out, cur)]
            cur = self._shift(cur)
        return tuple(out)

    def is_zero(self, a):
        return all(c == 0 for c in a)

    def is_integral(self, a):
        return all(c.denominator == 1 for c in a)

    def ord_over_p(self, a):
        """Valuation of a (normalized so ord(p) = 1), or None for zero.

        p factors as the (p-1)-st power of the prime above it, so the
        valuation is the number of exact divisions by (1 - zeta), over p-1.
        """
        if self.is_zero(a):
            return None
        assert self.is_integral(a)
        vec = tuple(int(c) for c in a)
        count = 0
        while True:
            sol = solve_unique(self._lam, vec)
            if any(c.denominator != 1 for c in sol):
                return Fraction(count, self.p - 1)
            vec = tuple(int(c) for c in sol)
            count += 1
            assert count <= 10 * self.p * self.dim, "runaway valuation"


# ---------------------------------------------------------------------------
# small extension fields as polynomials modulo an irreducible


def _poly_mul_mod(a, b, modulus, p):
    k = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    for d in range(len(out) - 1, k - 1, -1):
        c = out[d]
        if c:
            out[d] = 0
            for i in range(k):
                out[d - k + i] = (out[d - k + i] - c * modulus[i]) % p
    return tuple(c % p for c in out[:k]) + (0,) * max(0, k - len(out))


def _poly_divides(div, poly, p):
    rem = list(poly)
    dd = len(div) - 1
    inv_lead = pow(div[-1], p - 2, p)
    for d in range(len(rem) - 1, dd - 1, -1):
        c = rem[d] * inv_lead % p
        if c:
            for i in range(dd + 1):
                rem[d - dd + i] = (rem[d - dd + i] - c * div[i]) % p
    return all(c == 0 for c in rem)


def _find_irreducible(p, k):
    if k == 1:
        return (0, 1)  # the polynomial t, i.e. the prime field itself
    divisors = []
    for deg in range(1, k // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=deg):
            divisors.append(tuple(coeffs) + (1,))
    for coeffs in itertools.product(range(p), repeat=k):
        candidate = tuple(coeffs) + (1,)
        if candidate[0] == 0:
            continue
        if not any(_poly_divides(d, candidate, p) for d in divisors):
            return candidate
    raise AssertionError("no irreducible polynomial found")


class SmallField:
    def __init__(self, p, k):
        self.p = p
        self.k = k
        self.modulus = _find_irreducible(p, k)
        # the trace is F_p-linear, so Tr(t^i) for each basis element suffices
        self._basis_traces = [
            self._frobenius_trace(tuple(int(i == j) for i in range(k))) for j in range(k)
        ]

    def elements(self):
        return [tuple(c) for c in itertools.product(range(self.p), repeat=self.k)]

    def nonzero(self):
        return [e for e in self.elements() if any(e)]

    def mul(self, a, b):
        return _poly_mul_mod(a, b, self.modulus, self.p)

    def power(self, a, e):
        result = (1,) + (0,) * (self.k - 1)
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def monomial_value(self, x, exponent):
        """x**e for a possibly negative integer exponent, x nonzero."""
        if exponent >= 0:
            return self.power(x, exponent)
        inverse = self.power(x, self.p**self.k - 2)
        return self.power(inverse, -exponent)

    def _frobenius_trace(self, a):
        total = (0,) * self.k
        cur = a
        for _ in range(self.k):
            total = tuple((x + y) % self.p for x, y in zip(total, cur))
            cur = self.power(cur, self.p)
        assert all(c == 0 for c in total[1:]), "trace landed outside the prime field"
        return total[0]

    def trace(self, a):
        return sum(x * t for x, t in zip(a, self._basis_traces)) % self.p


# ---------------------------------------------------------------------------
# the L-polynomial from its defining sums


def _prime_factors(m):
    out = set()
    r = 2
    while r * r <= m:
        while m % r == 0:
            out.add(r)
            m //= r
        r += 1
    return out | ({m} if m > 1 else set())


def trace_table(field):
    """Tr(g^i) for i < q - 1, g the first generator of F_q^x in element order."""
    q1 = field.p**field.k - 1
    one = (1,) + (0,) * (field.k - 1)
    g = next(x for x in field.nonzero()
             if all(field.power(x, q1 // r) != one for r in _prime_factors(q1)))
    table = []
    x = one
    for _ in range(q1):
        table.append(field.trace(x))
        x = field.mul(x, g)
    return table


GRID_CHUNK = 1 << 20  # torus points per numpy step: a few arrays of 8 MB


def trace_counts(support, p, k):
    """How many torus points x of F_q^n, q = p^k, have Tr f(x) = t, for each
    t < p, f the sum of the support's monomials.

    Writing x = g^l for a generator g, Tr f(x) = sum_j Tr(g^(V_j . l)) mod p:
    one table lookup per monomial per point, with no field multiplication.
    The (q - 1)^n exponent vectors l are walked in chunks.
    """
    q1 = p**k - 1
    n = len(support[0])
    assert q1**n <= 20_000_000, "torus grid too large for this oracle"
    table = np.array(trace_table(SmallField(p, k)), dtype=np.int64)
    counts = np.zeros(p, dtype=np.int64)
    for start in range(0, q1**n, GRID_CHUNK):
        flat = np.arange(start, min(start + GRID_CHUNK, q1**n), dtype=np.int64)
        ls = np.unravel_index(flat, (q1,) * n)
        value = np.zeros(len(flat), dtype=np.int64)
        for v in support:
            value += table[sum(c * l for c, l in zip(v, ls)) % q1]
        counts += np.bincount(value % p, minlength=p)
    return [int(c) for c in counts]


def literal_trace_counts(support, p, k):
    """trace_counts by evaluating f with polynomial arithmetic in F_q."""
    field = SmallField(p, k)
    n = len(support[0])
    counts = [0] * p
    for xs in itertools.product(field.nonzero(), repeat=n):
        value = (0,) * field.k
        for exponent_vector in support:
            term = (1,) + (0,) * (field.k - 1)
            for x, e in zip(xs, exponent_vector):
                term = field.mul(term, field.monomial_value(x, e))
            value = tuple((a + b) % p for a, b in zip(value, term))
        counts[field.trace(value)] += 1
    return counts


def character_sum(support, p, k, cyclo):
    """Sum of zeta^(trace of f(x)) over the nonzero torus points."""
    total = cyclo.zero
    for t, c in enumerate(trace_counts(support, p, k)):
        if c:
            total = cyclo.add(total, tuple(x * c for x in cyclo.zeta_power(t)))
    return total


def l_polynomial_coefficients(support, p, degree, invert):
    """Coefficients of the polynomial factor, from the generating series.

    ``invert`` applies the sign flip that turns the series into its
    reciprocal (needed in even torus dimension). Returns degree + 3
    coefficients so callers can observe the trailing zeros.
    """
    cyclo = Cyclotomic(p)
    top = degree + 2
    sums = {k: character_sum(support, p, k, cyclo) for k in range(1, top + 1)}
    if invert:
        sums = {k: tuple(-c for c in s) for k, s in sums.items()}
    coeffs = [cyclo.one]
    for m in range(1, top + 1):
        acc = cyclo.zero
        for j in range(1, m + 1):
            acc = cyclo.add(acc, cyclo.mul(sums[j], coeffs[m - j]))
        coeffs.append(tuple(c / m for c in acc))
    return cyclo, coeffs


def newton_slopes_from_coefficients(cyclo, coeffs, degree):
    """Lower hull of (index, valuation); zero coefficients are skipped."""
    points = []
    for m, c in enumerate(coeffs[: degree + 1]):
        v = cyclo.ord_over_p(c)
        if v is not None:
            points.append((m, v))
    assert points[0] == (0, Fraction(0))
    assert points[-1][0] == degree, "leading coefficient vanished"
    slopes = []
    cur = 0
    while cur < len(points) - 1:
        m0, v0 = points[cur]
        best = None
        for nxt in range(cur + 1, len(points)):
            m1, v1 = points[nxt]
            s = Fraction(v1 - v0, m1 - m0)
            if best is None or s < best[0] or (s == best[0] and m1 > best[1]):
                best = (s, m1, nxt)
        slopes.extend([best[0]] * (best[1] - points[cur][0]))
        cur = best[2]
    return pt.LowerPolygon.from_slopes(slopes)


def oracle_polygon(support, p):
    n = len(support[0])
    poly = pt.build(pt.Support(n, tuple(support)))
    degree = poly.normalized_volume
    cyclo, coeffs = l_polynomial_coefficients(support, p, degree, invert=n % 2 == 0)
    for m, c in enumerate(coeffs):
        assert cyclo.is_integral(c), f"coefficient {m} is not an algebraic integer"
        if m > degree:
            assert cyclo.is_zero(c), f"series does not terminate at degree {degree}"
    return newton_slopes_from_coefficients(cyclo, coeffs, degree)


DIAGONAL_CASES = [
    ([(3,)], 7),   # ordinary: slopes 0, 1/3, 2/3
    ([(3,)], 5),   # residue 2 mod 3: slopes 0, 1/2, 1/2
    ([(4,)], 3),   # residue 3 mod 4: slopes 0, 1/2, 1/2, 1/2
    ([(4,)], 5),   # ordinary: slopes 0, 1/4, 1/2, 3/4
    ([(2,)], 3),
    ([(1, 1), (0, 2)], 3),  # two-dimensional, determinant 2
    ([(2, 1), (1, 1)], 3),  # unimodular in dimension 2
]


@pytest.mark.parametrize("support,p", DIAGONAL_CASES, ids=str)
def test_oracle_matches_orbit_computation(support, p):
    ds = dg.DiagonalSimplex.from_matrix(xm.IntMatrix.from_columns(support))
    assert oracle_polygon(support, p) == dg.newton_polygon_diag(ds, p)


def test_oracle_confirms_facial_verdict_on_nondiagonal_case():
    # two points in one dimension: not an n-point support, but its two
    # unimodular faces promise the lower bound at every prime
    support = [(1,), (-1,)]
    sup = pt.Support(1, tuple(support))
    for p in (3, 5):
        verdict = dc.ordinary_via_faces(sup, p)
        assert verdict.status is dc.FacialStatus.ORDINARY
        assert oracle_polygon(support, p) == pt.build(sup).hodge_polygon()


@pytest.mark.parametrize("support,p", [
    ([(3,)], 7),
    ([(1, 1), (0, 2)], 3),
    ([(1, 0), (0, 1), (-1, -1)], 3),
    ([(1, 0), (0, 1), (1, 1)], 2),
    ([(2, 1), (1, 2), (1, 0)], 3),
], ids=str)
def test_trace_table_matches_field_arithmetic(support, p):
    for k in (1, 2, 3):
        assert trace_counts(support, p, k) == literal_trace_counts(support, p, k), k


GENERAL_CASES = [
    ([(1, 0), (0, 1), (-1, -1)], 3),
    ([(1, 0), (0, 1), (-1, -1)], 5),
    ([(2, 0), (0, 1), (-1, -1)], 3),
    ([(1, 0), (0, 1), (-1, 0), (0, -1)], 3),
    ([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], 3),
    ([(1, 0), (0, 1), (-2, -1)], 3),
    ([(1, 0), (0, 1), (1, 1)], 3),  # the origin on the boundary
    ([(1, 0), (0, 1), (1, 1)], 5),
    ([(3, 0), (0, 1), (-1, -1)], 2),  # non-ordinary: 2 is not 1 mod 3
    ([(2, 1), (1, 2), (-1, -1)], 2),  # non-ordinary
]


@pytest.mark.parametrize("support,p", GENERAL_CASES, ids=str)
def test_oracle_against_the_hodge_polygon(support, p):
    sup = pt.Support(len(support[0]), tuple(support))
    hodge = pt.build(sup).hodge_polygon()
    newton = oracle_polygon(support, p)
    if dc.ordinary_via_faces(sup, p).status is dc.FacialStatus.ORDINARY:
        assert newton == hodge
    else:
        comparison = pt.lies_above(newton, hodge)
        assert comparison.status is not pt.Dominance.VIOLATION
        assert comparison.endpoints_coincide
