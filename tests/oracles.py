"""Independent oracles used to validate the library's computations.

These deliberately avoid the algorithms in the package: words as one
``(generator, +1 or -1)`` letter per power (read, printed and reduced
letter by letter), word reduction by repeated scanning, determinants by fraction-free elimination, invariant
factors by gcds of minors, Zariski lifts by two public ``apply`` calls and
an asserted flag, Zariski families by lifting along every composition and
deduplicating, partition counts by Euler's pentagonal
recurrence, each construction's added singularities and Hirzebruch
schedule by a separate rule per text form (replayed one elementary
transformation at a time), singularity types entry by entry on their
expanded sequences, type text by recursive descent over runs, property-flag
closure by sweeping the implications to a fixpoint, group descriptors by one class per shape with
cyclic parts merged through prime factorisation, first homology read off a
descriptor record field by field, and descriptor text by splitting at
top-level separators and matching each summand recursively.
"""

from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt, prod
import re

from curvegroups import extensions

from curvegroups.constructions import General, apply
from curvegroups.documents import encode_int, presentation_to_json
from curvegroups.extensions import PropertyFlags
from curvegroups.fpgroup import AbelianInvariants, Presentation, abelianization
from curvegroups.meridians import elem_first, elem_second, init_state
from curvegroups.singularities import BlowdownEntry, SingularityType, blowdown_type, multiset
from curvegroups.zariski import DISTINGUISHER_CYCLIC, ZariskiPairRecord


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


_REF_TERM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?")


def ref_parse_letters(text):
    """The letters of a word text, one per power of every term."""
    letters = []
    for term in text.split():
        m = _REF_TERM_RE.fullmatch(term)
        if m is None:
            raise ValueError(f"cannot parse word term {term!r}")
        exp = int(m.group(2) or 1)
        letters += [(m.group(1), 1 if exp >= 0 else -1)] * abs(exp)
    return tuple(letters)


def ref_word_text(letters):
    """Print letters, each maximal run of one letter as ``name^count``."""
    parts = []
    i = 0
    while i < len(letters):
        name, sign = letters[i]
        j = i
        while j < len(letters) and letters[j] == (name, sign):
            j += 1
        exp = sign * (j - i)
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


def ref_free_reduce(letters):
    """Freely reduce letter by letter on a stack."""
    stack = []
    for name, sign in letters:
        if stack and stack[-1] == (name, -sign):
            stack.pop()
        else:
            stack.append((name, sign))
    return tuple(stack)


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


def lift_by_apply(pair, spec):
    """The lift of a liftable pair by ``spec``: ``apply`` on each side, and
    the right side's non-cyclicity asserted afterwards."""
    left = apply(pair.left, spec)
    right = apply(pair.right, spec).with_asserted_props(
        PropertyFlags(cyclic=False), "a central extension of a non-cyclic group is never cyclic"
    )
    return ZariskiPairRecord(left, right, True, DISTINGUISHER_CYCLIC, pair.generation + 1, spec)


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
        record = lift_by_apply(pair, General(counts))
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


# ---------------------------------------------------------------------------
# constructions, one rule per text form; the arguments are those of the
# form's constructor: uludag(n), general(counts), mixed(ns, ms), special(n)


def _run(value, length):
    return SingularityType((value,) * length)


def _plain_blowdown(head, branch_mult, length):
    if head >= 2:
        return blowdown_type(head, [_run(branch_mult, length)])
    return SingularityType((head,) + (branch_mult,) * length)


def special_blowdown(degree, n, recorded_head=True):
    head = (2 if recorded_head else 1) * n * degree
    return _plain_blowdown(head, degree, 2 * n)


def _general_added(d, counts):
    total = sum(counts)
    types = [_run(d, n) for n in counts]
    types.append(_plain_blowdown(d * total, d, total))
    return multiset(types)


def _mixed_added(d, ns, ms):
    total = sum(ns)
    types = [_run(d, n) for n in ns]
    if len(ms) == 1:
        types.append(_plain_blowdown(d * total, d, total))
    else:
        types.append(blowdown_type(d * total, [_run(d, m) for m in ms]))
    return multiset(types)


REFERENCE_ADDED = {
    "uludag": lambda d, n: _general_added(d, (n,)),
    "general": _general_added,
    "mixed": _mixed_added,
    "special": lambda d, n: multiset([special_blowdown(d, n)]),
}


def _general_schedule(counts):
    labels = ("P",) + tuple(f"Q{i}" for i in range(1, len(counts) + 1))
    steps = [("type1", f"Q{i}") for i, n in enumerate(counts, 1) for _ in range(n)]
    steps += [("type2", "P")] * sum(counts)
    return labels, tuple(steps)


def _mixed_schedule(ns, ms):
    labels = tuple(f"P{j}" for j in range(1, len(ms) + 1))
    labels += tuple(f"Q{i}" for i in range(1, len(ns) + 1))
    steps = [("type1", f"Q{i}") for i, n in enumerate(ns, 1) for _ in range(n)]
    steps += [("type2", f"P{j}") for j, m in enumerate(ms, 1) for _ in range(m)]
    return labels, tuple(steps)


# form -> (fiber labels, (step type, fiber) sequence)
REFERENCE_SCHEDULE = {
    "uludag": lambda n: _general_schedule((n,)),
    "general": _general_schedule,
    "mixed": _mixed_schedule,
    "special": lambda n: (("L",), (("type1", "L"),) * n + (("type2", "L"),) * n),
}


def stepwise_replay(form, *args):
    """The letter-by-letter replay: the form's step sequence composed one
    :func:`elem_first` / :func:`elem_second` at a time."""
    labels, steps = REFERENCE_SCHEDULE[form](*args)
    state = init_state(labels)
    for kind, fiber in steps:
        state = (elem_first if kind == "type1" else elem_second)(state, fiber)
    return state


# ---------------------------------------------------------------------------
# Singularity types on their expanded entries: the sort key, drop, printer
# and parser written one entry at a time.  Run-length storage must agree
# with every one of them.


def ref_type_key(t):
    return tuple(
        (0, e) if isinstance(e, int) else (1, e.head, tuple(ref_type_key(c) for c in e.clusters))
        for e in t.entries
    )


def ref_drop(t):
    total = 0
    for e in t.entries:
        if isinstance(e, int):
            total += e * e
        else:
            total += e.head * e.head + sum(ref_drop(c) for c in e.clusters)
    return total


def ref_format_type(t, elide_ones=False):
    entries = t.entries
    if elide_ones:
        kept = tuple(e for e in entries if not isinstance(e, int) or e > 1)
        if kept:
            entries = kept
    parts = []
    i = 0
    while i < len(entries):
        e = entries[i]
        if isinstance(e, int):
            j = i
            while j < len(entries) and entries[j] == e:
                j += 1
            count = j - i
            parts.append(f"{e}_{count}" if count >= 3 else ",".join([str(e)] * count))
            i = j
        else:
            inner = ",".join(f"|{ref_format_type(c, elide_ones)}|" for c in e.clusters)
            parts.append(f"{e.head},({inner})")
            i += 1
    return "[" + ",".join(parts) + "]"


class _RefTypeParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        return ValueError(f"bad singularity type at position {self.pos}: {message} in {self.text!r}")

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self):
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def parse_type(self):
        self.expect("[")
        entries = []
        while True:
            value = self.integer()
            if self.peek() == "_":
                self.pos += 1
                count = self.integer()
                if count < 1:
                    raise self.error("run length must be >= 1")
                entries.extend([value] * count)
            elif self.peek() == ",":
                save = self.pos
                self.pos += 1
                if self.peek() == "(":
                    entries.append(self.parse_blowdown(value))
                else:
                    self.pos = save
                    entries.append(value)
            else:
                entries.append(value)
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect("]")
            return SingularityType(tuple(entries))

    def parse_blowdown(self, head):
        self.expect("(")
        clusters = []
        while True:
            self.expect("|")
            clusters.append(self.parse_type())
            self.expect("|")
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect(")")
            return BlowdownEntry(head, tuple(clusters))


def ref_parse_type(text):
    parser = _RefTypeParser(text)
    result = parser.parse_type()
    parser.peek()
    if parser.pos != len(text):
        raise parser.error("trailing characters")
    return result


# Reference singularity-type parser: recursive descent one character at a
# time, emitting "[v_c]" as one run, so it takes counts far beyond memory.
# It recurses once per blow-down level, so keep inputs shallow.


class _RunTypeParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        return ValueError(f"bad singularity type at position {self.pos}: {message} in {self.text!r}")

    def skip_space(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self):
        self.skip_space()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def parse_type(self):
        self.expect("[")
        runs = []
        while True:
            value = self.integer()
            if self.peek() == "_":
                self.pos += 1
                count = self.integer()
                if count < 1:
                    raise self.error("run length must be >= 1")
                runs.append((value, count))
            elif self.peek() == ",":
                save = self.pos
                self.pos += 1
                if self.peek() == "(":
                    runs.append((self.parse_blowdown(value), 1))
                else:
                    self.pos = save
                    runs.append((value, 1))
            else:
                runs.append((value, 1))
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect("]")
            return SingularityType.from_runs(runs)

    def parse_blowdown(self, head):
        self.expect("(")
        clusters = []
        while True:
            self.expect("|")
            clusters.append(self.parse_type())
            self.expect("|")
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect(")")
            return BlowdownEntry(head, tuple(clusters))


def ref_parse_type_runs(text):
    """The library's type, parsed by recursive descent over runs."""
    parser = _RunTypeParser(text)
    result = parser.parse_type()
    parser.skip_space()
    if parser.pos != len(text):
        raise parser.error("trailing characters")
    return result


# ---------------------------------------------------------------------------
# Reference group descriptors: one class per shape and an isinstance
# dispatch per operation, with cyclic parts merged by factoring every order
# into prime powers.  The library's single canonical record must agree with
# this on text, tree, order, flags, presentations and central extensions.


@dataclass(frozen=True)
class Cyclic:
    order: int


@dataclass(frozen=True)
class Free:
    rank: int


@dataclass(frozen=True)
class FreeAbelian:
    rank: int


@dataclass(frozen=True)
class FiniteTagged:
    order: int
    presentation: Presentation | None = None


@dataclass(frozen=True)
class DirectSum:
    parts: tuple


@dataclass(frozen=True)
class Tower:
    base: object
    kernels: tuple


def _invariant_factor_chain(orders):
    exponents = {}
    for n in orders:
        p = 2
        while p * p <= n:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                exponents.setdefault(p, []).append(e)
            p += 1
        if n > 1:
            exponents.setdefault(n, []).append(1)
    chain = []
    for p, es in exponents.items():
        es.sort(reverse=True)
        for i, e in enumerate(es):
            if i < len(chain):
                chain[i] *= p**e
            else:
                chain.append(p**e)
    return tuple(reversed(chain))


def _sort_key(g):
    rank = {Free: 0, FreeAbelian: 1, FiniteTagged: 2, Tower: 3, Cyclic: 4}[type(g)]
    if isinstance(g, (Free, FreeAbelian)):
        num = g.rank
    elif isinstance(g, (FiniteTagged, Cyclic)):
        num = g.order
    else:
        num = 0
    return (rank, num, ref_format(g))


def ref_canonical(g):
    if isinstance(g, (Free, FreeAbelian)):
        if g.rank == 0:
            return Cyclic(1)
        if g.rank == 1:
            return Free(1)
        return g
    if isinstance(g, Tower):
        return Tower(ref_canonical(g.base), g.kernels)
    if isinstance(g, DirectSum):
        return ref_direct_sum(*g.parts)
    return g


def ref_direct_sum(*parts):
    flat = []
    for p in parts:
        p = ref_canonical(p)
        flat.extend(p.parts if isinstance(p, DirectSum) else [p])
    abelian_rank = 0
    out = []
    cyclic_orders = []
    for p in flat:
        if isinstance(p, Free) and p.rank == 1:
            abelian_rank += 1
        elif isinstance(p, FreeAbelian):
            abelian_rank += p.rank
        elif isinstance(p, Cyclic):
            if p.order > 1:
                cyclic_orders.append(p.order)
        elif not (isinstance(p, FiniteTagged) and p.order == 1 and p.presentation is None):
            out.append(p)
    if abelian_rank == 1:
        out.append(Free(1))
    elif abelian_rank >= 2:
        out.append(FreeAbelian(abelian_rank))
    out.extend(Cyclic(d) for d in _invariant_factor_chain(cyclic_orders))
    if not out:
        return Cyclic(1)
    if len(out) == 1:
        return out[0]
    return DirectSum(tuple(sorted(out, key=_sort_key)))


def ref_order(g):
    if isinstance(g, (Cyclic, FiniteTagged)):
        return g.order
    if isinstance(g, (Free, FreeAbelian)):
        return 1 if g.rank == 0 else None
    if isinstance(g, DirectSum):
        orders = [ref_order(p) for p in g.parts]
        return None if None in orders else prod(orders)
    base = ref_order(g.base)
    return None if base is None else base * prod(g.kernels)


def ref_format(g):
    if isinstance(g, Cyclic):
        return f"Z/{g.order}"
    if isinstance(g, Free):
        return "Z" if g.rank == 1 else f"F{g.rank}"
    if isinstance(g, FreeAbelian):
        return "Z" if g.rank == 1 else f"Z^{g.rank}"
    if isinstance(g, FiniteTagged):
        return f"Fin({g.order})"
    if isinstance(g, DirectSum):
        return " (+) ".join(ref_format(p) for p in g.parts)
    return f"Tower({ref_format(g.base)}; {','.join(str(n) for n in g.kernels)})"


def ref_tree(g):
    """The document tree, as ``documents.group_to_json`` wrote it."""
    if isinstance(g, Cyclic):
        return {"kind": "cyclic", "order": encode_int(g.order)}
    if isinstance(g, Free):
        return {"kind": "free", "rank": encode_int(g.rank)}
    if isinstance(g, FreeAbelian):
        return {"kind": "free-abelian", "rank": encode_int(g.rank)}
    if isinstance(g, FiniteTagged):
        pres = None if g.presentation is None else presentation_to_json(g.presentation)
        return {"kind": "finite", "order": encode_int(g.order), "presentation": pres}
    if isinstance(g, DirectSum):
        return {"kind": "direct-sum", "parts": [ref_tree(p) for p in g.parts]}
    return {"kind": "tower", "base": ref_tree(g.base), "kernels": [encode_int(n) for n in g.kernels]}


def h1_of_record(g):
    """First homology of the group a descriptor record stands for, read off
    its fields: each free factor F_k and the abelian part's Z^r give free
    rank, the abelian part gives its torsion, and a finite part gives the
    abelianization of its presentation.  None when ``g`` has a tower or a
    finite part without a presentation."""
    if g.towers or any(pres is None for _, pres in g.finite):
        return None
    finite = [abelianization(pres) for _, pres in g.finite]
    return AbelianInvariants(
        sum(g.free) + g.abelian.free_rank + sum(a.free_rank for a in finite),
        _invariant_factor_chain(g.abelian.torsion + tuple(d for a in finite for d in a.torsion)),
    )


def close_flags_by_fixpoint(state):
    """Close a dict of tri-state flags under ``extensions._IMPLICATIONS`` by
    sweeping every edge until nothing changes, true forward and false
    backward.  Returns the closed dict, or raises the contradiction error
    the library raises."""
    state = dict(state)

    def join(a, b, name):
        if a is not None and b is not None and a != b:
            raise ValueError(f"contradictory values for property {name!r}: {a} vs {b}")
        return b if a is None else a

    changed = True
    while changed:
        changed = False
        for a, b in extensions._IMPLICATIONS:
            if state[a] is True and state[b] is not True:
                state[b] = join(state[b], True, b)
                changed = True
            if state[b] is False and state[a] is not False:
                state[a] = join(state[a], False, a)
                changed = True
    return state


def _trial_prime_power(n):
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
        p += 1
    return n


def _trial_is_prime(n):
    return n >= 2 and all(n % p for p in range(2, isqrt(n) + 1))


def _tri_all(values):
    values = list(values)
    if False in values:
        return False
    return None if None in values else True


_ALL_TRUE = PropertyFlags(finite=True, cyclic=True, nilpotency_class=(0, 0))


def ref_props(g):
    g = ref_canonical(g)
    if isinstance(g, Cyclic):
        if g.order == 1:
            return _ALL_TRUE
        return PropertyFlags(
            finite=True,
            cyclic=True,
            p_group=_trial_prime_power(g.order),
            nilpotency_class=(1, 1),
        )
    if isinstance(g, Free):
        if g.rank == 1:
            return PropertyFlags(finite=False, cyclic=True, nilpotency_class=(1, 1))
        return PropertyFlags(finite=False, virtually_solvable=False)
    if isinstance(g, FreeAbelian):
        return PropertyFlags(finite=False, abelian=True, cyclic=False, supersolvable=True, nilpotency_class=(1, 1))
    if isinstance(g, FiniteTagged):
        if g.order == 1:
            return _ALL_TRUE
        kw = {"finite": True, "p_group": _trial_prime_power(g.order)}
        if _trial_is_prime(g.order):
            kw.update(cyclic=True, nilpotency_class=(1, 1))
        return PropertyFlags(**kw)
    if isinstance(g, DirectSum):
        props = [ref_props(p) for p in g.parts]
        recognized = all(isinstance(p, (Cyclic, Free, FreeAbelian)) for p in g.parts)
        primes = {p.p_group for p in props}
        classes = [p.nilpotency_class for p in props]
        cls = None
        if None not in classes:
            cls = (max(c[0] for c in classes), max(c[1] for c in classes))
        names = ("finite", "abelian", "solvable", "supersolvable", "polycyclic", "nilpotent",
                 "virtually_nilpotent", "virtually_solvable")
        return PropertyFlags(
            cyclic=False if recognized else None,
            p_group=primes.pop() if len(primes) == 1 else None,
            nilpotency_class=cls,
            **{name: _tri_all(getattr(p, name) for p in props) for name in names},
        )
    return ref_propagate(ref_props(g.base), g.kernels)


def ref_propagate_one(p, n):
    """The one-kernel preservation rule: flags after one central extension
    by Z/n.  True values other than abelian and cyclic persist, and so does
    abelian=False; a p-group stays one when n is a power of that p; the
    class bound grows by one; everything else becomes unknown."""
    cls = None if p.nilpotency_class is None else (p.nilpotency_class[0], p.nilpotency_class[1] + 1)
    keeps_p = p.p_group is not None and _trial_prime_power(n) == p.p_group
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


def ref_propagate(p, kernels):
    """The one-kernel rule folded over ``kernels``, innermost first."""
    for n in kernels:
        p = ref_propagate_one(p, n)
    return p


def ref_central_extend(g, n, *, irreducible=False, family_tag=None):
    g = ref_canonical(g)
    if isinstance(g, Cyclic) and irreducible:
        return Cyclic(g.order * n)
    if isinstance(g, Free) or (isinstance(g, FreeAbelian) and family_tag == "generic-lines"):
        return ref_direct_sum(g, Cyclic(n))
    q = ref_order(g)
    if q is not None and gcd(q, n) == 1:
        return ref_direct_sum(g, Cyclic(n))
    if isinstance(g, Tower):
        return Tower(g.base, g.kernels + (n,))
    return Tower(g, (n,))


# ---------------------------------------------------------------------------
# Reference descriptor parser: split the text at top-level "(+)" and match
# each summand against one regex per shape, recursing into tower bases.
# It rescans the text once per nesting level, so keep inputs shallow.


def _split_summands(text):
    parts = []
    depth = 0
    start = 0
    i = 0
    while i < len(text):
        # "(+)" is the sum separator, not a grouping paren
        if text[i : i + 3] == "(+)":
            if depth == 0:
                parts.append(text[start:i])
                start = i + 3
            i += 3
            continue
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        i += 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def ref_parse_descriptor(text):
    """The library's descriptor, parsed by splitting and matching."""
    parts = _split_summands(text.strip())
    if len(parts) > 1:
        return extensions.direct_sum(*(ref_parse_descriptor(p) for p in parts))
    atom = parts[0]
    if not atom:
        raise ValueError("empty group descriptor")
    if atom == "Z":
        return extensions.Free(1)
    m = re.fullmatch(r"Z/(\d+)", atom)
    if m:
        return extensions.Cyclic(int(m.group(1)))
    m = re.fullmatch(r"Z\^(\d+)", atom)
    if m:
        return extensions.FreeAbelian(int(m.group(1)))
    m = re.fullmatch(r"F(\d+)", atom)
    if m:
        return extensions.Free(int(m.group(1)))
    m = re.fullmatch(r"Fin\((\d+)\)", atom)
    if m:
        return extensions.FiniteTagged(int(m.group(1)))
    m = re.fullmatch(r"Tower\((.+);\s*([\d,\s]+)\)", atom, re.DOTALL)
    if m:
        base = ref_parse_descriptor(m.group(1))
        kernels = tuple(int(s) for s in m.group(2).split(",") if s.strip())
        return extensions.Tower(base, kernels)
    raise ValueError(f"cannot parse group descriptor {atom!r}")
