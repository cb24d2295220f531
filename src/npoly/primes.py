"""Deterministic Miller-Rabin primality testing and prime enumeration."""

from itertools import compress
from math import isqrt

# The first 13 prime bases decide primality for every n below this bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017);
# the first 12 are fooled by 318665857834031151167461.
DETERMINISTIC_BOUND = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic for n < DETERMINISTIC_BOUND."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(bound: int) -> list[int]:
    """The primes p < bound, by a sieve of Eratosthenes."""
    if bound < 3:
        return []
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return list(compress(range(bound), sieve))
