"""Independent answers for the benchmark's output checks.

Nothing here calls the library: determinants and ranks by fraction-free
elimination, partition counts by recursion, meridian words from their
closed form, and spec text from count tuples.
"""

from __future__ import annotations

from functools import lru_cache


# ---------------------------------------------------------------------------
# construction specs as plain data: (kind, raise_counts, lower_counts)


def spec_text(kind: str, raise_counts, lower_counts=()) -> str:
    if kind in ("uludag", "special"):
        return f"{kind}({raise_counts[0]})"
    if kind == "general":
        return f"general({','.join(map(str, raise_counts))})"
    ns = ",".join(map(str, raise_counts))
    ms = ",".join(map(str, lower_counts))
    return f"mixed({ns};{ms})"


def kernel_order(raise_counts) -> int:
    return sum(raise_counts) + 1


def added_type_count(kind: str, raise_counts) -> int:
    """How many singularity types one construction adds."""
    return 1 if kind == "special" else len(raise_counts) + 1


def audit_residual(kind: str, raise_counts, degree: int) -> int:
    """Self-intersection audit residual: zero, except for the single-fiber
    schedule, whose recorded blow-down misses by -3 n^2 d^2."""
    if kind == "special":
        n = raise_counts[0]
        return -3 * n * n * degree * degree
    return 0


def run_text(value: int, count: int) -> str:
    """Printed form of a multiplicity run, as stored in documents."""
    if count >= 3:
        return f"{value}_{count}"
    return ",".join([str(value)] * count)


# ---------------------------------------------------------------------------
# meridian closed forms


def word_text(letters) -> str:
    """Print a positive word given as generator names, merging equal
    neighbours into powers: ['a', 'a', 'b'] -> 'a^2 b'."""
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        parts.append(letters[i] if j - i == 1 else f"{letters[i]}^{j - i}")
        i = j
    return " ".join(parts)


def closed_form_fibers(kind: str, raise_counts, lower_counts=()) -> tuple[str, dict[str, str]]:
    """Exceptional meridian E and every fiber word after the full schedule:
    a raising fiber Q_i ends as E^{n_i} a_i, lowering fibers keep their
    generator, and the single-fiber schedule gives L = a^{n+1}."""
    if kind == "special":
        return "a", {"L": word_text(["a"] * (raise_counts[0] + 1))}
    if kind == "uludag":
        kind = "general"
    raise_gens = [f"a{i}" for i in range(1, len(raise_counts) + 1)]
    if kind == "general":
        lower = {"P": "b"}
    else:
        lower = {f"P{j}": f"b{j}" for j in range(1, len(lower_counts) + 1)}
    exceptional = list(lower.values()) + raise_gens
    fibers = dict(lower)
    for i, n in enumerate(raise_counts, 1):
        fibers[f"Q{i}"] = word_text(exceptional * n + [f"a{i}"])
    return word_text(exceptional), fibers


# ---------------------------------------------------------------------------
# integer linear algebra


def bareiss_determinant(matrix) -> int:
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank(matrix) -> int:
    """Rank over Q by fraction-free row elimination."""
    a = [list(row) for row in matrix]
    if not a:
        return 0
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c]:
                f, g = a[i][c], a[r][c]
                a[i] = [x * g - y * f for x, y in zip(a[i], a[r])]
        r += 1
    return r


def check_invariant_factors(matrix, factors) -> str | None:
    """Factors must be positive, form a divisibility chain, number the rank,
    and multiply to |det| for a square nonsingular matrix."""
    if any(d < 1 for d in factors):
        return f"nonpositive factor in {factors}"
    if any(b % a for a, b in zip(factors, factors[1:])):
        return f"factors {factors} are not a divisibility chain"
    r = rank(matrix)
    if len(factors) != r:
        return f"{len(factors)} factors for rank {r}"
    if matrix and len(matrix) == len(matrix[0]) and r == len(matrix):
        product = 1
        for d in factors:
            product *= d
        det = abs(bareiss_determinant(matrix))
        if product != det:
            return f"factor product {product} != |det| {det}"
    return None


# ---------------------------------------------------------------------------
# partitions and primes


@lru_cache(maxsize=None)
def _partitions(total: int, largest: int) -> int:
    if total == 0:
        return 1
    return sum(_partitions(total - part, part) for part in range(1, min(total, largest) + 1))


def partitions_up_to(bound: int) -> int:
    """Sum of p(s) for 1 <= s <= bound: 138 at bound 10, 271 at bound 12."""
    return sum(_partitions(s, s) for s in range(1, bound + 1))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_near(rng, low: int, high: int) -> int:
    """A uniformly placed prime in [low, high)."""
    while True:
        n = rng.randrange(low, high) | 1
        if is_prime(n):
            return n
