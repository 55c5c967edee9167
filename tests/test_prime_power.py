"""Differential tests for ``extensions._prime_power``, the factoring-free
prime-power test (trial division below 1,000, exact integer roots, then
deterministic Miller-Rabin below psi_13), and the ``p_group`` check built on
it.  The reference is plain trial division, ``oracles._trial_prime_power``."""

import pytest
from hypothesis import given, settings, strategies as st

from curvegroups.extensions import PropertyFlags, _iroot, _prime_power

import oracles
from conftest import deadline

try:
    import sympy
except ImportError:  # test-only dependency
    sympy = None

PSI13 = 3317044064679887385961981  # smallest strong pseudoprime to the bases 2..41
MERSENNE_127 = 2**127 - 1  # a prime above PSI13
PRIMES_BELOW_20000 = [p for p in range(2, 20000) if oracles._trial_prime_power(p) == p]


def test_matches_trial_division_below_100000():
    with deadline(10.0):
        for n in range(100000):
            assert _prime_power(n) == oracles._trial_prime_power(n), n


@settings(max_examples=300)
@given(st.sampled_from(PRIMES_BELOW_20000), st.integers(1, 40), st.integers(1, 10**12))
def test_matches_trial_division_on_prime_power_multiples(p, k, m):
    n = p**k * m  # smallest prime factor <= p, so trial division stops early
    with deadline(2.0):
        assert _prime_power(n) == oracles._trial_prime_power(n)


@pytest.mark.parametrize(
    "n",
    [
        561,
        2047,
        3215031751,
        3825123056546413051,
        318665857834031151167461,
        PSI13,
    ],
)
def test_strong_pseudoprimes_are_not_prime_powers(n):
    with deadline(1.0):
        assert _prime_power(n) is None


@pytest.mark.parametrize("p", [999999999989, 10**12 + 39, 999999999999999989, 10**18 + 3, 999999999999999999999743, 10**24 + 7])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_large_prime_powers_give_their_prime(p, k):
    with deadline(1.0):
        assert _prime_power(p**k) == p


@pytest.mark.parametrize("k", [1, 2, 3])
def test_prime_root_at_or_above_psi13_is_unknown(k):
    with deadline(1.0):
        assert _prime_power(MERSENNE_127**k) is None


def test_thousand_digit_input_finishes():
    with deadline(1.0):
        assert _prime_power(10**999 + 7) is None
        assert _prime_power(3**2000) == 3


@settings(max_examples=300)
@given(st.integers(1, 10**40), st.integers(2, 60))
def test_iroot_is_the_floor_root(n, k):
    with deadline(1.0):
        r = _iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def _sympy_prime_power(n):
    if n < 2:
        return None
    power = sympy.perfect_power(n)
    base = power[0] if power else n
    return base if base < PSI13 and sympy.isprime(base) else None


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.integers(0, 10**30),
        st.builds(lambda b, e: b**e, st.integers(2, 10**8), st.integers(2, 12)),
        st.builds(lambda b, e: b**e, st.integers(10**11, 10**13), st.integers(1, 4)),
    )
)
def test_matches_sympy(n):
    with deadline(2.0):
        assert _prime_power(n) == _sympy_prime_power(n)


# ---------------------------------------------------------------------------
# PropertyFlags.p_group must not be shown composite


@pytest.mark.parametrize("p", [4, 6, 561, 1000, 3825123056546413051, (10**12 + 39) ** 3, 6 * 10**30, 2**200])
def test_p_group_rejects_a_composite(p):
    with deadline(1.0), pytest.raises(ValueError, match=f"p_group must be a prime, got {p}"):
        PropertyFlags(p_group=p, finite=True)


@pytest.mark.parametrize("p", [2, 3, 997, 1009, 5000000029, 10**18 + 3, MERSENNE_127])
def test_p_group_accepts_a_prime_or_an_undecided_value(p):
    with deadline(1.0):
        flags = PropertyFlags(p_group=p, finite=True)
    assert flags.p_group == p
    assert flags.nilpotent is True


@pytest.mark.parametrize("p", [2.0, True, "3"])
def test_p_group_rejects_non_integers(p):
    with deadline(1.0), pytest.raises(ValueError, match=f"must be integers, got {p!r}"):
        PropertyFlags(p_group=p)


@pytest.mark.parametrize("p", [-3, 0, 1])
def test_p_group_rejects_values_below_two(p):
    with deadline(1.0), pytest.raises(ValueError, match=f"must be >= 2, got {p}"):
        PropertyFlags(p_group=p)
