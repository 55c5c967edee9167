"""Free-group words, finite presentations, and integer Smith normal form.

Words are stored as runs ``(generator, exponent)``, so ``x^1000000000``
costs what ``x`` costs; equality is equality of freely reduced forms.
Presentations support quotienting by extra relators and abelianization,
which is computed exactly via the Smith normal form of the relator
exponent matrix.  All arithmetic uses Python's arbitrary precision
integers; there is no overflow regime.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

# a letter is a run whose exponent is +1 or -1
Letter = Run = tuple[str, int]

_TERM_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


@dataclass(frozen=True, init=False)
class Word:
    """A word in a free group, stored as runs ``(generator, exponent)``.

    ``Word(letters)`` builds it from ``(generator, +1 or -1)`` letters.  No
    exponent is zero, and neighbouring runs differ in generator or in
    sign, so ``x^1000000000`` is one run.  Stored runs need not be reduced
    (``a a^-1`` is two runs); two words compare equal when their freely
    reduced forms coincide.

    >>> Word.parse("a b b^-1 a") == Word.parse("a^2")
    True
    >>> str(Word.parse("a a b^-1"))
    'a^2 b^-1'
    """

    runs: tuple[Run, ...]

    def __init__(self, letters: Iterable[Letter] = ()):
        letters = tuple(letters)
        for name, sign in letters:
            if not isinstance(name, str) or not name:
                raise ValueError(f"generator name must be a nonempty string, got {name!r}")
            if type(sign) is not int or sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        object.__setattr__(self, "runs", _of_runs(letters).runs)

    @classmethod
    def parse(cls, text: str) -> "Word":
        runs = []
        for term in text.split():
            m = _TERM_RE.match(term)
            if m is None:
                raise ValueError(f"cannot parse word term {term!r}")
            runs.append((m.group(1), int(m.group(2) or 1)))
        return _of_runs(runs)

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The expanded view: one ``(generator, +1 or -1)`` letter per power."""
        return tuple((g, 1 if e > 0 else -1) for g, e in self.runs for _ in range(abs(e)))

    def __str__(self) -> str:
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in self.runs)

    def __mul__(self, other: "Word") -> "Word":
        return _of_runs(self.runs + other.runs)

    def inverse(self) -> "Word":
        return _of_runs((g, -e) for g, e in reversed(self.runs))

    def __pow__(self, n: int) -> "Word":
        _require_ints("exponents", (n,))
        if len(self.runs) == 1:
            return _of_runs(((self.runs[0][0], self.runs[0][1] * n),))
        base = self if n >= 0 else self.inverse()
        return _of_runs(base.runs * abs(n))

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.runs)

    def __bool__(self) -> bool:
        return bool(free_reduce(self).runs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return free_reduce(self).runs == free_reduce(other).runs

    def __hash__(self) -> int:
        return hash(free_reduce(self).runs)

    def generators(self) -> set[str]:
        return {g for g, _ in self.runs}

    def exponent_sum(self, generator: str) -> int:
        return sum(e for g, e in self.runs if g == generator)


def _of_runs(runs: Iterable[Run]) -> Word:
    """The word of ``runs``, trusted to hold names and integers: zero
    exponents are dropped and neighbours of one generator and one sign
    joined."""
    out: list[Run] = []
    for name, exp in runs:
        if out and out[-1][0] == name and (out[-1][1] > 0) == (exp > 0):
            out[-1] = (name, out[-1][1] + exp)
        elif exp:
            out.append((name, exp))
    word = object.__new__(Word)
    object.__setattr__(word, "runs", tuple(out))
    return word


EMPTY_WORD = Word()


def generator(name: str) -> Word:
    return Word(((name, 1),))


def commutator(a: Word, b: Word) -> Word:
    return a * b * a.inverse() * b.inverse()


def free_reduce(w: Word) -> Word:
    """Return the unique freely reduced word equal to ``w``.

    >>> str(free_reduce(Word.parse("a b b^-1 a^-1 a b")))
    'a b'
    >>> free_reduce(Word.parse("a a^-1")).letters
    ()
    """
    stack: list[Run] = []
    for name, exp in w.runs:
        if stack and stack[-1][0] == name:
            exp += stack.pop()[1]
        if exp:
            stack.append((name, exp))
    return _of_runs(stack)


@dataclass(frozen=True)
class Presentation:
    """A finite group presentation: generator names plus relator words.

    Relators are stored freely reduced; relators that reduce to the empty
    word are dropped.  Every relator must use only declared generators.
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...] = ()

    def __post_init__(self):
        gens = tuple(self.generators)
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator names")
        declared = set(gens)
        reduced = []
        for rel in self.relators:
            rel = free_reduce(rel)
            unknown = rel.generators() - declared
            if unknown:
                raise ValueError(f"relator uses undeclared generators {sorted(unknown)}")
            if rel.runs:
                reduced.append(rel)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", tuple(reduced))

    def __str__(self) -> str:
        rels = ", ".join(str(r) for r in self.relators)
        return f"< {' '.join(self.generators)} | {rels} >"

    def exponent_matrix(self) -> list[list[int]]:
        """Relator exponent-sum matrix: one row per relator, one column per generator."""
        return [[rel.exponent_sum(g) for g in self.generators] for rel in self.relators]


def quotient(p: Presentation, extra: Sequence[Word]) -> Presentation:
    """Adjoin relators: presents the group of ``p`` modulo their normal closure."""
    return Presentation(p.generators, p.relators + tuple(extra))


def _require_ints(what: str, values, least: int | None = None) -> None:
    """Check that ``values`` are integers, and >= ``least`` unless it is
    None.  This is the library's one integer-argument check: floats, bools
    and strings are rejected by name rather than truncated or read as
    numbers."""
    for value in values:
        # an exact int skips both isinstance calls
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValueError(f"{what} must be integers, got {value!r}")
        if least is not None and value < least:
            raise ValueError(f"{what} must be >= {least}, got {value}")


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant-factor form of a finitely generated abelian group.

    ``free_rank`` copies of Z plus cyclic summands Z/d1 (+) Z/d2 (+) ... with
    d1 | d2 | ... and every di >= 2.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        tor = tuple(self.torsion)
        _require_ints("free ranks", (self.free_rank,), 0)
        _require_ints("torsion entries", tor, 2)
        for a, b in zip(tor, tor[1:]):
            if b % a != 0:
                raise ValueError(f"torsion entries must form a divisibility chain: {a} does not divide {b}")
        object.__setattr__(self, "torsion", tor)

    @property
    def summand_count(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def order(self) -> int | None:
        """Group order, or None when infinite."""
        return prod(self.torsion) if self.free_rank == 0 else None

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " (+) ".join(parts) if parts else "0"


def _smallest_nonzero(a: list[list[int]], t: int) -> tuple[int, int] | None:
    best = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix, r = rank.

    Exact arithmetic throughout; every returned factor is positive and
    divides the next.

    >>> smith_normal_form([[2, 4], [6, 8]])
    (2, 4)
    >>> smith_normal_form([[0, 0], [0, 0]])
    ()
    """
    a = [list(row) for row in matrix]
    for row in a:
        _require_ints("matrix entries", row)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("matrix rows must have equal length")
    factors: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        pivot = _smallest_nonzero(a, t)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            swapped = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, ncols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        # remainder became the smaller pivot candidate
                        a[t], a[i] = a[i], a[t]
                        swapped = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, nrows):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        swapped = True
            if swapped:
                continue
            offender = None
            p = a[t][t]
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, ncols):
                a[t][j] += a[offender][j]
        if a[t][t] < 0:
            for j in range(t, ncols):
                a[t][j] = -a[t][j]
        factors.append(a[t][t])
        t += 1
    return tuple(factors)


def abelianization(p: Presentation) -> AbelianInvariants:
    """First homology of the presented group, via Smith normal form.

    >>> abelianization(Presentation(("a",), (Word.parse("a^5"),)))
    AbelianInvariants(free_rank=0, torsion=(5,))
    """
    if not p.generators:
        return AbelianInvariants(0, ())
    if not p.relators:
        return AbelianInvariants(len(p.generators), ())
    factors = smith_normal_form(p.exponent_matrix())
    free_rank = len(p.generators) - len(factors)
    return AbelianInvariants(free_rank, tuple(d for d in factors if d > 1))


# The k = 1 local group: a single smooth branch, infinite cyclic.
SINGLE_BRANCH_LOCAL_GROUP = Presentation(("a",), ())


def local_group(k: int) -> Presentation:
    """Local fundamental group at an ordinary k-fold point of smooth branches.

    Z (+) F_{k-1} presented on a central generator ``a`` and branch meridians
    ``a2`` .. ``ak``, with relators making ``a`` commute with each of them:

    >>> str(local_group(2))
    '< a a2 | a a2 a^-1 a2^-1 >'

    ``a`` equals the product of all k branch meridians in their cyclic order
    (see :func:`local_group_center`); the first branch meridian has been
    eliminated by that change of variables.  One branch (k = 1) is
    :data:`SINGLE_BRANCH_LOCAL_GROUP`.
    """
    _require_ints("branch counts", (k,), 2)
    center = generator("a")
    names = ("a",) + tuple(f"a{i}" for i in range(2, k + 1))
    relators = tuple(commutator(center, generator(n)) for n in names[1:])
    return Presentation(names, relators)


def local_group_center(k: int) -> tuple[str, tuple[str, ...]]:
    """The central generator of ``local_group(k)`` and the branch meridians
    (in counterclockwise order) whose product it equals."""
    _require_ints("branch counts", (k,), 1)
    return "a", tuple(f"a{i}" for i in range(1, k + 1))


def cyclic_quotient_order(counts: Sequence[int]) -> int:
    """Order of the abelianized quotient of Z (+) F_{k-1} by the relations
    a^{n_i} a_i, computed through :func:`smith_normal_form`.

    In the homology basis (a, a2, ..., ak) the eliminated first branch
    meridian rewrites as a - (a2 + ... + ak), so the relation rows are

        [n1 + 1, -1, ..., -1]  and  [n_i, 0, .., 1, .., 0]  for i >= 2.

    The result always equals sum(counts) + 1.

    >>> cyclic_quotient_order((1, 1))
    3
    """
    counts = tuple(counts)
    if not counts:
        raise ValueError("at least one transformation count is required")
    _require_ints("transformation counts", counts, 1)
    k = len(counts)
    rows = [[counts[0] + 1] + [-1] * (k - 1)]
    for i in range(1, k):
        row = [counts[i]] + [0] * (k - 1)
        row[i] = 1
        rows.append(row)
    factors = smith_normal_form(rows)
    if len(factors) != k:
        raise ArithmeticError("quotient is infinite; relation matrix lost rank")
    return prod(factors)
