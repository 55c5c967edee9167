"""Group descriptors and the central-extension step.

A :class:`GroupDescriptor` records the fundamental group of a curve
complement as one canonical record: the ranks of its nonabelian free
factors, its abelian part in invariant-factor form, opaque finite groups of
known order, and unresolved towers of central extensions over a recognized
base.  The constructors :func:`Cyclic`, :func:`Free`, :func:`FreeAbelian`,
:func:`FiniteTagged`, :func:`Tower` and :func:`direct_sum` each return that
canonical form, so isomorphic regroupings compare equal:

>>> direct_sum(Cyclic(4), Cyclic(6)) == direct_sum(Cyclic(2), Cyclic(12))
True

:func:`summands` lists the parts in canonical order as ``(kind, value,
extra)`` triples; the text form, the document tree, presentations, property
flags and the central-extension rules all read that one view:

>>> summands(parse_descriptor("Z/3 (+) F2 (+) Z/2 (+) Z"))
[('free', 1, None), ('free', 2, None), ('cyclic', 6, None)]

:func:`central_extend` applies the recognition rules for extending by a
cyclic group of order N; :func:`split_test` decides split/non-split from
first homology; :func:`propagate_properties` carries group properties
through a central extension, degrading to "unknown" whenever preservation
is not guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain, count
from math import exp, gcd, isqrt, log, prod
import re

from .fpgroup import AbelianInvariants, Presentation, Word, _require_ints, commutator, generator


@dataclass(frozen=True)
class GroupDescriptor:
    """F_k1 (+) ... (+) Z^r (+) Z/d1 (+) ... (+) finite parts (+) towers.

    Build it through the constructors, which keep it canonical: ``free``
    holds the nonabelian free ranks (k >= 2) in ascending order,
    ``abelian`` the invariant factors, ``finite`` (order, presentation or
    None) pairs sorted by order, and ``towers`` (base, kernel orders
    innermost first) pairs sorted by their text form.
    """

    free: tuple[int, ...] = ()
    abelian: AbelianInvariants = AbelianInvariants(0)
    finite: tuple[tuple[int, Presentation | None], ...] = ()
    towers: tuple[tuple[GroupDescriptor, tuple[int, ...]], ...] = ()

    def __str__(self) -> str:
        return format_descriptor(self)


def Cyclic(order: int) -> GroupDescriptor:
    """Finite cyclic group Z/order; Cyclic(1) is the trivial group."""
    _require_ints("cyclic orders", (order,), 1)
    return GroupDescriptor(abelian=AbelianInvariants(0, (order,) if order > 1 else ()))


def Free(rank: int) -> GroupDescriptor:
    """Free group of the given rank; Free(1) is the canonical form of Z."""
    _require_ints("free ranks", (rank,), 0)
    if rank < 2:
        return GroupDescriptor(abelian=AbelianInvariants(rank))
    return GroupDescriptor(free=(rank,))


def FreeAbelian(rank: int) -> GroupDescriptor:
    """Free abelian group Z^rank."""
    return GroupDescriptor(abelian=AbelianInvariants(rank))


def FiniteTagged(order: int, presentation: Presentation | None = None) -> GroupDescriptor:
    """An otherwise-unclassified finite group of known order, optionally
    carrying a presentation."""
    _require_ints("finite group orders", (order,), 1)
    return GroupDescriptor(finite=((order, presentation),))


def Tower(base: GroupDescriptor, kernels: tuple[int, ...]) -> GroupDescriptor:
    """Unresolved iterated central extension of ``base`` by cyclic groups of
    the listed kernel orders, innermost first."""
    kernels = tuple(kernels)
    if not kernels:
        raise ValueError("a tower needs at least one kernel order")
    _require_ints("tower kernel orders", kernels, 2)
    return GroupDescriptor(towers=((base, kernels),))


def _with_cyclic(chain: list[int], a: int) -> list[int]:
    """Invariant factors of Z/a (+) Z/chain[0] (+) ..., folding a in from
    the largest factor down by Z/a (+) Z/d = Z/gcd(a,d) (+) Z/lcm(a,d)."""
    out = []
    for d in reversed(chain):
        g = gcd(a, d)
        out.append(a // g * d)
        a = g
    if a > 1:
        out.append(a)
    return out[::-1]


def direct_sum(*parts: GroupDescriptor) -> GroupDescriptor:
    """Merge the parts' fields into canonical form.  A bare Fin(1) is
    dropped; cyclic factors combine without factoring any order."""
    free: list[int] = []
    rank = 0
    torsion: list[int] = []
    finite: list = []
    towers: list = []
    for p in parts:
        free += p.free
        rank += p.abelian.free_rank
        for d in p.abelian.torsion:
            torsion = _with_cyclic(torsion, d)
        finite += [f for f in p.finite if f != (1, None)]
        towers += p.towers
    return GroupDescriptor(
        tuple(sorted(free)),
        AbelianInvariants(rank, tuple(torsion)),
        tuple(sorted(finite, key=lambda f: f[0])),
        tuple(sorted(towers, key=lambda t: format_descriptor(GroupDescriptor(towers=(t,))))),
    )


def summands(g: GroupDescriptor) -> list[tuple]:
    """The parts of ``g`` in canonical order, as ``(kind, value, extra)``:
    ``("free", rank, None)`` (rank 1 is Z), ``("free-abelian", rank, None)``,
    ``("finite", order, presentation)``, ``("tower", base, kernels)`` and
    ``("cyclic", order, None)``.  The trivial group is one ``Z/1``."""
    a = g.abelian
    parts: list[tuple] = [("free", 1, None)] if a.free_rank == 1 else []
    parts += [("free", k, None) for k in g.free]
    if a.free_rank >= 2:
        parts.append(("free-abelian", a.free_rank, None))
    parts += [("finite", order, pres) for order, pres in g.finite]
    parts += [("tower", base, kernels) for base, kernels in g.towers]
    parts += [("cyclic", d, None) for d in a.torsion]
    return parts or [("cyclic", 1, None)]


def order_of(g: GroupDescriptor) -> int | None:
    """Group order when finite, else None."""
    total = g.abelian.order
    if g.free or total is None:
        return None
    for order, _ in g.finite:
        total *= order
    for base, kernels in g.towers:
        base_order = order_of(base)
        if base_order is None:
            return None
        total *= base_order * prod(kernels)
    return total


# ---------------------------------------------------------------------------
# canonical string form

_ATOM_FORMS = {"cyclic": "Z/{}", "free": "F{}", "free-abelian": "Z^{}", "finite": "Fin({})"}


def format_descriptor(g: GroupDescriptor) -> str:
    """Canonical text form, e.g. ``Z/6``, ``F2 (+) Z/3``, ``Z^4 (+) Z/5``,
    ``Tower(Z/2; 2,3)``.  Inverse of :func:`parse_descriptor`."""
    texts = []
    # a loop, not a comprehension: one stack frame per level of tower nesting
    for kind, value, extra in summands(g):
        if kind == "tower":
            kernels = ",".join(str(n) for n in extra)
            texts.append(f"Tower({format_descriptor(value)}; {kernels})")
        elif kind == "free" and value == 1:
            texts.append("Z")
        else:
            texts.append(_ATOM_FORMS[kind].format(value))
    return " (+) ".join(texts)


# The two parser states: a part (or an opening ``Tower(``) is expected, or
# what may follow a part.  Whitespace goes only where a leading \s* or the
# kernel list takes it, never inside an atom.
_ATOM = re.compile(
    r"\s*(?:(?P<tower>Tower\()|Z/(?P<cyclic>\d+)|Z\^(?P<free_abelian>\d+)"
    r"|F(?P<free>\d+)|Fin\((?P<finite>\d+)\)|(?P<Z>Z))"
)
_AFTER = re.compile(r"\s*(?:(?P<sum>\(\+\))|;(?P<kernels>[\d,\s]+)\)|(?P<end>\Z))")
_ATOM_KINDS = {"cyclic": Cyclic, "free_abelian": FreeAbelian, "free": Free, "finite": FiniteTagged}


def parse_descriptor(text: str) -> GroupDescriptor:
    """Parse the canonical text form back into a descriptor, in one pass
    from left to right: ``Tower(`` pushes a list of summands onto a stack
    and ``; kernels)`` pops it, so nesting depth costs no stack frames.

    >>> str(parse_descriptor("Tower(Z/2 (+) Z/3; 2, 3)"))
    'Tower(Z/6; 2,3)'
    """
    levels: list[list[GroupDescriptor]] = [[]]  # open summand lists, outermost first
    pos = 0
    while m := _ATOM.match(text, pos):
        pos, kind = m.end(), m.lastgroup
        if kind == "tower":
            levels.append([])
            continue
        levels[-1].append(Free(1) if kind == "Z" else _ATOM_KINDS[kind](int(m[kind])))
        # after a part comes "(+)" or the close of its level: the end of the
        # text at the outermost level, "; kernels)" at every other
        while (m := _AFTER.match(text, pos)) and m.lastgroup == ("kernels" if len(levels) > 1 else "end"):
            parts = levels.pop()
            group = parts[0] if len(parts) == 1 else direct_sum(*parts)
            if m.lastgroup == "end":
                return group
            try:  # whitespace after ";" is skipped; int() takes that around each order
                kernels = tuple(int(s) for s in m["kernels"].lstrip().split(",") if s.strip())
            except ValueError:
                pos = m.start("kernels")
                break
            levels[-1].append(Tower(group, kernels))
            pos = m.end()
        if not m or m.lastgroup != "sum":
            break
        pos = m.end()
    raise ValueError(f"cannot parse group descriptor {text!r} at position {pos}")


def to_presentation(g: GroupDescriptor) -> Presentation | None:
    """A presentation for a single recognized summand; None otherwise."""
    parts = summands(g)
    if len(parts) != 1:
        return None
    kind, value, extra = parts[0]
    if kind == "cyclic":
        return Presentation(("x",), (Word.parse(f"x^{value}"),))
    if kind == "finite":
        return extra
    if kind == "tower":
        return None
    names = tuple(f"x{i}" for i in range(1, value + 1))
    if kind == "free":
        return Presentation(names)
    rels = tuple(
        commutator(generator(a), generator(b))
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    )
    return Presentation(names, rels)


# ---------------------------------------------------------------------------
# property flags


_TRISTATE_FIELDS = (
    "finite",
    "abelian",
    "cyclic",
    "solvable",
    "supersolvable",
    "polycyclic",
    "nilpotent",
    "virtually_nilpotent",
    "virtually_solvable",
)

# A -> B meaning: A true forces B true (all implications hold for arbitrary
# groups).  True flows forward, false flows backward.
_IMPLICATIONS = (
    ("cyclic", "abelian"),
    ("cyclic", "supersolvable"),
    ("abelian", "nilpotent"),
    ("nilpotent", "solvable"),
    ("nilpotent", "virtually_nilpotent"),
    ("supersolvable", "polycyclic"),
    ("polycyclic", "solvable"),
    ("solvable", "virtually_solvable"),
    ("virtually_nilpotent", "virtually_solvable"),
)


@dataclass(frozen=True)
class PropertyFlags:
    """Tri-state property record: True, False, or None (unknown).

    ``p_group`` holds the prime p when the group is known to be a finite
    p-group, else None; a value :func:`_prime_power` shows composite is
    rejected.  ``nilpotency_class`` is an inclusive [lo, hi]
    interval, present only when nilpotency is known.  Construction closes
    the flags under standard implications (cyclic => abelian => nilpotent
    => solvable, ...) and rejects contradictory assignments.
    """

    finite: bool | None = None
    abelian: bool | None = None
    cyclic: bool | None = None
    solvable: bool | None = None
    supersolvable: bool | None = None
    polycyclic: bool | None = None
    nilpotent: bool | None = None
    virtually_nilpotent: bool | None = None
    virtually_solvable: bool | None = None
    p_group: int | None = None
    nilpotency_class: tuple[int, int] | None = None

    def __post_init__(self):
        state = {name: getattr(self, name) for name in _TRISTATE_FIELDS}
        p = self.p_group
        if p is not None and not (type(p) is int and p in _SMALL_PRIME_SET):
            _require_ints("p_group primes", (p,), 2)
            if _is_composite(p):
                raise ValueError(f"p_group must be a prime, got {p}")
        if self.nilpotency_class is not None:
            lo, hi = self.nilpotency_class
            _require_ints("nilpotency class bounds", (lo, hi), 0)
            if lo > hi:
                raise ValueError(f"bad nilpotency class interval {self.nilpotency_class}")
            object.__setattr__(self, "nilpotency_class", (lo, hi))
            state["nilpotent"] = _join(state["nilpotent"], True, "nilpotent")
        if self.p_group is not None and state["finite"] is True:
            state["nilpotent"] = _join(state["nilpotent"], True, "nilpotent")
        changed = True
        while changed:
            changed = False
            for a, b in _IMPLICATIONS:
                if state[a] is True and state[b] is not True:
                    state[b] = _join(state[b], True, b)
                    changed = True
                if state[b] is False and state[a] is not False:
                    state[a] = _join(state[a], False, a)
                    changed = True
        for name in _TRISTATE_FIELDS:
            object.__setattr__(self, name, state[name])

    @property
    def nonabelian(self) -> bool | None:
        return None if self.abelian is None else not self.abelian

    def merged(self, other: "PropertyFlags") -> "PropertyFlags":
        """Combine two sound flag records; conflicting knowledge is an error."""
        kw = {}
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name == "nilpotency_class":
                if mine is not None and theirs is not None:
                    lo = max(mine[0], theirs[0])
                    hi = min(mine[1], theirs[1])
                    if lo > hi:
                        raise ValueError(f"incompatible nilpotency class intervals {mine} and {theirs}")
                    kw[f.name] = (lo, hi)
                else:
                    kw[f.name] = mine if mine is not None else theirs
            else:
                kw[f.name] = _join(mine, theirs, f.name)
        return PropertyFlags(**kw)

    def known(self) -> dict[str, object]:
        """The non-unknown flags, for display."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                out[f.name] = v
        return out


def _join(a, b, name: str):
    if a is None:
        return b
    if b is None:
        return a
    if a != b:
        raise ValueError(f"contradictory values for property {name!r}: {a} vs {b}")
    return a


UNKNOWN_PROPS = PropertyFlags()


def _tri_all(values) -> bool | None:
    values = list(values)
    if any(v is False for v in values):
        return False
    if any(v is None for v in values):
        return None
    return True


def _primes_below(n: int) -> tuple[int, ...]:
    """The sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(2, n) if sieve[p])


# The primes below 1,000, and the smallest strong pseudoprime psi_k to each
# run of the first k prime bases 2, 3, 5, ..., 41 (OEIS A014233; psi_13 from
# Sorenson and Webster, Math. Comp. 86 (2017)): below psi_k the first k bases
# decide primality exactly.
_SMALL_PRIMES = _primes_below(1000)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_MR_BASES = _SMALL_PRIMES[:13]
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
_PSI13 = _PSI[-1]


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1 and k >= 2: Newton's method, started
    from a 52-bit float estimate raised just above the root."""
    if k == 2:
        return isqrt(n)
    shift = max(0, n.bit_length() // k - 52)
    x = (int(exp(log(n >> k * shift) / k) * (1 + 2.0**-40)) + 2) << shift
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_strong_probable_prime(n: int) -> bool:
    """Miller-Rabin for odd n with no prime factor below 1,000 and
    1000 < n < psi_13, to just enough of the bases 2, 3, ..., 41 to be exact."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a, psi in zip(_MR_BASES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


def _prime_power(n: int) -> int | None:
    """The prime p when n = p^l with l >= 1 is certified, else None.

    No factoring: (1) trial division by the primes below 1,000, where a hit
    p answers p or None and p^2 > n answers n; (2) otherwise n has no prime
    factor below 1,000, so n = r^e forces e <= log n / log 1000, and exact
    integer roots for those prime e reduce n to the root r that is not a
    perfect power; (3) r is certified by deterministic Miller-Rabin when
    r < psi_13 = 3,317,044,064,679,887,385,961,981, the smallest strong
    pseudoprime to all thirteen prime bases 2..41.  A root r >= psi_13 is
    not tested and answers None ("not known to be a p-group"), so a prime
    is never returned uncertified.

    >>> _prime_power(2 ** 40), _prime_power(1000003 ** 3), _prime_power(2047)
    (2, 1000003, None)
    >>> _prime_power(2 ** 127 - 1) is None
    True
    """
    if n < 2:
        return None
    for p in _SMALL_PRIMES:
        if p * p > n:
            return n
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    # every odd exponent past 997: a composite one only repeats work
    exponents = chain(_SMALL_PRIMES, count(1001, 2))
    e = next(exponents)
    while 1000**e < n:  # a root r > 1000 needs n > 1000^e
        r = _iroot(n, e)
        if r**e == n:
            n = r  # r may be an e-th power again; smaller exponents stay ruled out
        else:
            e = next(exponents)
    return n if n < _PSI13 and _is_strong_probable_prime(n) else None


def _is_composite(n: int) -> bool:
    """True when n >= 2 is shown composite: exactly below psi_13, and above
    it when a prime below 1,000 divides n or n is a power of a certified
    prime.  False for primes and for what those tests cannot settle."""
    p = _prime_power(n)
    return p != n and (p is not None or n < _PSI13 or any(n % q == 0 for q in _SMALL_PRIMES))


_ALL_TRUE = PropertyFlags(
    finite=True,
    abelian=True,
    cyclic=True,
    solvable=True,
    supersolvable=True,
    polycyclic=True,
    nilpotent=True,
    virtually_nilpotent=True,
    virtually_solvable=True,
    nilpotency_class=(0, 0),
)


def props_from_descriptor(g: GroupDescriptor) -> PropertyFlags:
    """Sound property flags derivable from the descriptor shape alone."""
    parts = summands(g)
    part_props = []
    # a loop, not a comprehension: one stack frame per level of tower nesting
    for kind, value, extra in parts:
        if kind == "tower":
            flags = props_from_descriptor(value)
            for n in extra:
                flags = propagate_properties(flags, n)
        elif kind in ("cyclic", "finite") and value == 1:
            flags = _ALL_TRUE
        elif kind == "cyclic":
            flags = PropertyFlags(
                finite=True,
                cyclic=True,
                supersolvable=True,
                p_group=_prime_power(value),
                nilpotency_class=(1, 1),
                virtually_nilpotent=True,
            )
        elif kind == "finite":
            kw: dict = {"finite": True, "p_group": _prime_power(value)}
            if kw["p_group"] == value:  # prime order, hence cyclic
                kw.update(cyclic=True, supersolvable=True, nilpotency_class=(1, 1))
            flags = PropertyFlags(**kw)
        elif kind == "free" and value == 1:
            flags = PropertyFlags(finite=False, cyclic=True, supersolvable=True, nilpotency_class=(1, 1))
        elif kind == "free":
            flags = PropertyFlags(finite=False, virtually_solvable=False)
        else:
            flags = PropertyFlags(
                finite=False,
                abelian=True,
                cyclic=False,
                supersolvable=True,
                nilpotency_class=(1, 1),
            )
        part_props.append(flags)
    if len(part_props) == 1:
        return part_props[0]
    recognized = all(kind in ("cyclic", "free", "free-abelian") for kind, _, _ in parts)
    primes = {p.p_group for p in part_props}
    classes = [p.nilpotency_class for p in part_props]
    cls = None
    if all(c is not None for c in classes):
        cls = (max(c[0] for c in classes), max(c[1] for c in classes))
    kw = {name: _tri_all(getattr(p, name) for p in part_props) for name in _TRISTATE_FIELDS}
    kw["cyclic"] = False if recognized else None
    return PropertyFlags(**kw, p_group=primes.pop() if len(primes) == 1 else None, nilpotency_class=cls)


def propagate_properties(p: PropertyFlags, kernel_order: int) -> PropertyFlags:
    """Carry flags through a central extension by Z/kernel_order.

    Preserved true values: finite, solvable, supersolvable, polycyclic,
    nilpotent, and the virtual variants; being nonabelian (abelian=False)
    persists; a p-group stays one exactly when the kernel order is a power
    of the same p.  A nilpotency class interval [lo, hi] widens to
    [lo, hi+1].  Everything else degrades to unknown; unknown never
    upgrades.
    """
    if kernel_order < 2:
        raise ValueError("kernel order must be >= 2")
    cls = None
    if p.nilpotency_class is not None:
        cls = (p.nilpotency_class[0], p.nilpotency_class[1] + 1)
    keeps_p = p.p_group is not None and _prime_power(kernel_order) == p.p_group
    return PropertyFlags(
        finite=True if p.finite is True else None,
        abelian=False if p.abelian is False else None,
        cyclic=None,
        solvable=True if p.solvable is True else None,
        supersolvable=True if p.supersolvable is True else None,
        polycyclic=True if p.polycyclic is True else None,
        nilpotent=True if p.nilpotent is True else None,
        virtually_nilpotent=True if p.virtually_nilpotent is True else None,
        virtually_solvable=True if p.virtually_solvable is True else None,
        p_group=p.p_group if keeps_p else None,
        nilpotency_class=cls,
    )


# ---------------------------------------------------------------------------
# the central-extension step


def central_extend(
    g: GroupDescriptor,
    kernel_order: int,
    *,
    irreducible: bool = False,
    family_tag: str | None = None,
) -> GroupDescriptor:
    """Descriptor of a central extension of ``g`` by Z/kernel_order.

    First matching rule wins:

    a. cyclic group of an irreducible curve: stays cyclic, order multiplies;
    b. free group: H^2(F_k, Z/N) is trivial, so the extension splits off;
    c. free abelian group from the generic-lines family: splits off
       (certified by that family's direct computation, hence the tag gate);
    d. finite group of order coprime to the kernel: splits off;
    e. otherwise the extension stays unresolved as a tower.

    The rules agree wherever several apply, so order only fixes the
    canonical result.
    """
    if kernel_order < 2:
        raise ValueError("kernel order must be >= 2 (1 is the identity extension)")
    n = kernel_order
    parts = summands(g)
    kind, value, extra = parts[0]
    single = len(parts) == 1
    if single and kind == "cyclic" and irreducible:
        return Cyclic(value * n)
    if single and (kind == "free" or (kind == "free-abelian" and family_tag == "generic-lines")):
        return direct_sum(g, Cyclic(n))
    q = order_of(g)
    if q is not None and gcd(q, n) == 1:
        return direct_sum(g, Cyclic(n))
    if single and kind == "tower":
        return Tower(value, extra + (n,))
    return Tower(g, (n,))


# ---------------------------------------------------------------------------
# split / non-split


class SplitKind(Enum):
    NON_SPLIT = "non-split"
    SPLITS_AS_DIRECT_SUM = "splits-as-direct-sum"
    UNKNOWN = "unknown"


RULE_SUMMANDS_NONCOPRIME = "summand-count-with-noncoprime-orders"
RULE_COPRIME_FINITE = "coprime-finite-order"
RULE_NONE = "no-rule-applies"


@dataclass(frozen=True)
class SplitVerdict:
    kind: SplitKind
    justification: str

    def __str__(self) -> str:
        return f"{self.kind.value} [{self.justification}]"


def split_test(h1: AbelianInvariants, components: int, kernel_order: int) -> SplitVerdict:
    """Split/non-split verdict for a central extension by Z/kernel_order of
    the group of a curve with ``components`` irreducible components and
    first homology ``h1``.

    Non-split when H1 has exactly ``components`` direct summands, each of
    order non-coprime to the kernel order (a free summand Z counts as
    non-coprime to everything: gcd(0, N) = N).  Splits as a direct sum in
    the coprime finite case, where the caller passes H1 only when the group
    itself is known finite abelian.  Otherwise unknown.
    """
    if components < 1:
        raise ValueError("component count must be >= 1")
    if kernel_order < 2:
        raise ValueError("kernel order must be >= 2")
    orders = [0] * h1.free_rank + list(h1.torsion)
    if len(orders) == components and all(gcd(d, kernel_order) > 1 for d in orders):
        return SplitVerdict(SplitKind.NON_SPLIT, RULE_SUMMANDS_NONCOPRIME)
    if h1.free_rank == 0 and gcd(prod(h1.torsion), kernel_order) == 1:
        return SplitVerdict(SplitKind.SPLITS_AS_DIRECT_SUM, RULE_COPRIME_FINITE)
    return SplitVerdict(SplitKind.UNKNOWN, RULE_NONE)
