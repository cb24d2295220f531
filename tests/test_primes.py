"""Prime enumeration against trial division."""

from bisect import bisect_left

from npoly.primes import is_prime, primes_below


def trial_primes_below(bound):
    """The primes below bound, by testing every integer (the former route)."""
    return [n for n in range(2, bound) if is_prime(n)]


def test_sieve_matches_trial_division_for_every_bound_to_5000():
    # trial division filters range(2, bound), so its list for a smaller
    # bound is the prefix of the list for 5001 below that bound
    trial = trial_primes_below(5001)
    for bound in range(-2, 5001):
        assert primes_below(bound) == trial[: bisect_left(trial, bound)], bound
    for bound in (0, 1, 2, 3, 4, 25, 26, 97, 98, 4999):
        assert primes_below(bound) == trial_primes_below(bound)


def test_large_bound_counts():
    assert len(primes_below(10**5)) == 9592
    assert primes_below(10**5)[-1] == 99991
