"""Exact integer helpers for the benchmark's generator and checker.

Deliberately independent of npoly: the benchmark uses these to draw valid
inputs and to check reports, so a defect in npoly's own arithmetic cannot
hide itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm


def det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def columns_matrix(points) -> list[list[int]]:
    """Rows of the matrix whose columns are the given points."""
    return [list(r) for r in zip(*points)]


def largest_invariant_factor(points) -> int:
    """d_n of the square matrix with these columns: |det| / gcd of (n-1)-minors."""
    m = columns_matrix(points)
    n = len(m)
    d = abs(det(m))
    if n == 1:
        return d
    g = 0
    for rows in combinations(range(n), n - 1):
        for cols in combinations(range(n), n - 1):
            g = gcd(g, det([[m[i][j] for j in cols] for i in rows]))
    return d // g


def is_prime(n: int) -> bool:
    """Trial division; the benchmark only draws primes below 10**6."""
    if n < 2:
        return False
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def primes_below(bound: int) -> list[int]:
    """Sieve of Eratosthenes."""
    if bound < 3:
        return []
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for q in range(2, isqrt(bound - 1) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(range(q * q, bound, q)))
    return [q for q in range(bound) if sieve[q]]


def phi(n: int) -> int:
    """Euler's totient by trial factorization."""
    out, m, q = n, n, 2
    while q * q <= m:
        if m % q == 0:
            while m % q == 0:
                m //= q
            out -= out // q
        q += 1
    if m > 1:
        out -= out // m
    return out


def lcm_all(values) -> int:
    return lcm(1, *values)


def fmt(x: Fraction) -> str:
    """Lowest-terms string, as the reports print rationals."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def barycentric(vertices, x) -> tuple[Fraction, ...] | None:
    """Affine coordinates of x against n+1 affinely independent vertices."""
    n = len(x)
    a = [[v[i] for v in vertices] for i in range(n)] + [[1] * (n + 1)]
    b = list(x) + [1]
    d = det(a)
    if d == 0:
        return None
    out = []
    for j in range(n + 1):
        aj = [row[:j] + [b[i]] + row[j + 1 :] for i, row in enumerate(a)]
        out.append(Fraction(det(aj), d))
    return tuple(out)


def multiplicative_order(p: int, m: int) -> int:
    """Smallest d >= 1 with p**d = 1 (mod m), for p coprime to m."""
    d, power = 1, p % m
    while power != 1 % m:
        power = power * p % m
        d += 1
    return d


def digit_sum_slope(r: tuple[Fraction, ...], degree: int, p: int) -> Fraction | None:
    """Orbit slope by the digit-sum formula, or None if degree is not a period.

    With q = p**degree, each coordinate a/b (b | q - 1) contributes the
    base-p digit sum of a(q - 1)/b, whose digits are the period of the
    base-p expansion of a/b; the slope is the total over (p - 1)*degree.
    """
    total = 0
    for x in r:
        a, b = x.numerator, x.denominator
        if pow(p, degree, b) != 1 % b:
            return None
        rem = a % b
        for _ in range(degree):
            rem *= p
            total += rem // b
            rem %= b
    return Fraction(total, (p - 1) * degree)
