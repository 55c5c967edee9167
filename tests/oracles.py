"""Independent oracles used to validate the library's computations.

These deliberately avoid the algorithms in the package: word reduction by
repeated scanning, determinants by fraction-free elimination, invariant
factors by gcds of minors, Zariski families by lifting along every
composition and deduplicating, partition counts by Euler's pentagonal
recurrence.
"""

from itertools import combinations
from math import gcd, prod

from curvegroups.constructions import General
from curvegroups.zariski import lift_pair


def naive_reduce(letters):
    """Freely reduce by rescanning from the start after every cancellation."""
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            (g1, s1), (g2, s2) = letters[i], letters[i + 1]
            if g1 == g2 and s1 == -s2:
                del letters[i : i + 2]
                changed = True
                break
    return tuple(letters)


def bareiss_determinant(matrix):
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    assert all(len(row) == n for row in a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
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


def _minor(matrix, rows, cols):
    sub = [[matrix[i][j] for j in cols] for i in rows]
    return bareiss_determinant(sub)


def invariant_factors_by_minors(matrix):
    """Invariant factors via determinant divisors: d_k = D_k / D_{k-1} where
    D_k is the gcd of all k x k minors.  Exponential, fine for tiny inputs."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    factors = []
    previous = 1
    for k in range(1, min(nrows, ncols) + 1):
        divisor = 0
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                divisor = gcd(divisor, _minor(matrix, rows, cols))
        if divisor == 0:
            break
        factors.append(divisor // previous)
        previous = divisor
    return tuple(factors)


def finite_abelian_order(factors):
    return prod(factors)


def family_by_compositions(pair, bound):
    """Zariski family of ``pair``: lift by ``General(t)`` for every
    composition t of 1..bound (2^bound - 1 lifts) in (length, tuple) order,
    and keep the first record per combinatorics fingerprint."""
    compositions = []

    def extend(prefix, remaining):
        for v in range(1, remaining + 1):
            compositions.append(prefix + (v,))
            extend(prefix + (v,), remaining - v)

    extend((), bound)
    compositions.sort(key=lambda t: (len(t), t))
    records, seen = [], set()
    for counts in compositions:
        record = lift_pair(pair, General(counts))
        left = record.left
        fingerprint = (left.degree, tuple(sorted(left.component_degrees)), left.singularities)
        if fingerprint not in seen:
            seen.add(fingerprint)
            records.append(record)
    return records


def partition_count(n):
    """p(n) by Euler's pentagonal number recurrence."""
    p = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            for pent in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if pent <= m:
                    total += sign * p[m - pent]
            k += 1
        p.append(total)
    return p[n]
