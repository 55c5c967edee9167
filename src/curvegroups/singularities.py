"""Multiplicity-sequence bookkeeping for plane-curve singularities.

A singularity type is the ordered list of multiplicities of the point along
its resolution by blow-ups; an entry may also be a blow-down record that
nests a head multiplicity over a multiset of infinitely-near clusters.
Types are stored as runs ``(entry, count)`` with adjacent equal entries
merged and every count >= 1, so ``[2_1000000]`` costs what ``[2_3]``
costs; equality, hashing, ordering, drops and the text form all work per
run.  Multiplicity-1 entries are legal in storage (they keep the
self-intersection audit exact for degree-1 bookkeeping) but are elided in
display; runs of three or more equal multiplicities print abbreviated, so
[2,2,2] displays as [2_3].
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

Entry = Union[int, "BlowdownEntry"]
Run = tuple[Entry, int]


@dataclass(frozen=True)
class BlowdownEntry:
    """Head multiplicity of a blown-down point plus the cluster types that
    sat on the contracted exceptional section (an unordered multiset)."""

    head: int
    clusters: tuple["SingularityType", ...]

    def __post_init__(self):
        if self.head < 2:
            raise ValueError(f"blow-down head multiplicity must be >= 2, got {self.head}")
        if not self.clusters:
            raise ValueError("blow-down entry needs at least one cluster")
        object.__setattr__(self, "clusters", tuple(sorted(self.clusters, key=type_key)))


def _canonical_runs(runs: Iterable[Run]) -> tuple[Run, ...]:
    """Validated runs with adjacent equal entries merged."""
    out: list[Run] = []
    for entry, count in runs:
        if not isinstance(entry, BlowdownEntry) and (not isinstance(entry, int) or entry < 1):
            raise ValueError(f"multiplicity entries must be integers >= 1, got {entry!r}")
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"run length must be an integer >= 1, got {count!r}")
        if out and out[-1][0] == entry:
            out[-1] = (entry, out[-1][1] + count)
        else:
            out.append((entry, count))
    if not out:
        raise ValueError("a singularity type needs at least one entry")
    return tuple(out)


@dataclass(frozen=True, init=False)
class SingularityType:
    """A multiplicity sequence stored as canonical runs ``(entry, count)``.

    The constructor takes the expanded entries and compresses them;
    :meth:`from_runs` takes runs directly.

    >>> SingularityType((2, 2, 2, 3)).runs
    ((2, 3), (3, 1))
    >>> SingularityType.from_runs([(2, 10**9), (2, 1)]) == SingularityType.from_runs([(2, 10**9 + 1)])
    True
    """

    runs: tuple[Run, ...]

    def __init__(self, entries: Iterable[Entry]):
        object.__setattr__(self, "runs", _canonical_runs((e, 1) for e in entries))

    @classmethod
    def from_runs(cls, runs: Iterable[Run]) -> "SingularityType":
        t = cls.__new__(cls)
        object.__setattr__(t, "runs", _canonical_runs(runs))
        return t

    @property
    def entries(self) -> tuple[Entry, ...]:
        """The expanded multiplicity sequence, one entry per blow-up step.
        Its length is the sum of the counts."""
        return tuple(e for e, count in self.runs for _ in range(count))

    def __str__(self) -> str:
        return format_type(self)

    def pretty(self) -> str:
        return format_type(self, elide_ones=True)


def _entry_key(e: Entry):
    return (0, e) if isinstance(e, int) else (1, e.head, tuple(type_key(c) for c in e.clusters))


def type_key(t: SingularityType):
    """Sort key ordering types as their expanded entry sequences compare.

    A run of ``count`` copies of an entry with key k keys as ``(k, 1,
    -count)`` when the next run's entry is greater (a longer run then sorts
    first) and as ``(k, -1, count)`` when it is smaller or the sequence ends
    (a longer run then sorts last).
    """
    key = t.__dict__.get("_key")
    if key is None:
        keys = [_entry_key(e) for e, _ in t.runs] + [None]
        key = tuple(
            (k, 1, -count) if following is not None and following > k else (k, -1, count)
            for k, following, (_, count) in zip(keys, keys[1:], t.runs)
        )
        object.__setattr__(t, "_key", key)  # cached: a function of the runs alone
    return key


def tacnode_type(branches: int, order: int = 0) -> SingularityType:
    """Type of a point where ``branches`` smooth branches share a tangent to
    contact ``order``: the multiplicity d repeated order+1 times.  Order 0
    is an ordinary d-fold point [d]."""
    if branches < 2:
        raise ValueError("a tacnode needs at least 2 branches")
    if order < 0:
        raise ValueError("tacnode order must be >= 0")
    return SingularityType.from_runs(((branches, order + 1),))


def blowdown_type(head: int, clusters: Sequence[SingularityType]) -> SingularityType:
    """Blow-down of the given clusters under a point of multiplicity ``head``.

    A single all-plain cluster [t1,...,ts] flattens to [head, t1,...,ts];
    several clusters stay nested, e.g. [6,(|[2,2]|,|[2]|)].
    """
    if head < 2:
        raise ValueError(f"blow-down head multiplicity must be >= 2, got {head}")
    clusters = tuple(clusters)
    if not clusters:
        raise ValueError("blow-down needs at least one cluster")
    if len(clusters) == 1 and all(isinstance(e, int) for e, _ in clusters[0].runs):
        return SingularityType.from_runs(((head, 1),) + clusters[0].runs)
    return SingularityType.from_runs(((BlowdownEntry(head, clusters), 1),))


def drop(t: SingularityType) -> int:
    """Total self-intersection decrease from resolving the point: the sum of
    squared multiplicities, recursing through blow-down entries."""
    total = 0
    for e, count in t.runs:
        if isinstance(e, int):
            total += count * e * e
        else:
            total += count * (e.head * e.head + sum(drop(c) for c in e.clusters))
    return total


# ---------------------------------------------------------------------------
# text form: [3,3]  [2_3]  [6,(|[2,2]|,|[2]|)]


def _format_run(value: int, count: int) -> str:
    return f"{value}_{count}" if count >= 3 else ",".join([str(value)] * count)


def format_type(t: SingularityType, elide_ones: bool = False) -> str:
    runs = t.runs
    if elide_ones:
        kept = [(e, count) for e, count in runs if not isinstance(e, int) or e > 1]
        if kept:
            runs = _canonical_runs(kept)
    parts: list[str] = []
    for e, count in runs:
        if isinstance(e, int):
            parts.append(_format_run(e, count))
        else:
            inner = ",".join(f"|{format_type(c, elide_ones)}|" for c in e.clusters)
            parts.extend([f"{e.head},({inner})"] * count)
    return "[" + ",".join(parts) + "]"


class _TypeParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        return ValueError(f"bad singularity type at position {self.pos}: {message} in {self.text!r}")

    def skip_space(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def parse_type(self) -> SingularityType:
        self.expect("[")
        runs: list[Run] = []
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

    def parse_blowdown(self, head: int) -> BlowdownEntry:
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


def parse_type(text: str) -> SingularityType:
    parser = _TypeParser(text)
    result = parser.parse_type()
    parser.skip_space()
    if parser.pos != len(text):
        raise parser.error("trailing characters")
    return result


# ---------------------------------------------------------------------------
# multisets of types


@dataclass(frozen=True)
class SingularityMultiset:
    """Multiset of singularity types in canonical sorted order."""

    types: tuple[SingularityType, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(sorted(self.types, key=type_key)))

    def __add__(self, other: "SingularityMultiset") -> "SingularityMultiset":
        return SingularityMultiset(self.types + other.types)

    def __len__(self) -> int:
        return len(self.types)

    def __iter__(self):
        return iter(self.types)

    def counts(self) -> list[tuple[SingularityType, int]]:
        counter = Counter(self.types)
        return [(t, counter[t]) for t in sorted(counter, key=type_key)]

    def __str__(self) -> str:
        if not self.types:
            return "{}"
        parts = []
        for t, n in self.counts():
            parts.append(t.pretty() if n == 1 else f"{n} x {t.pretty()}")
        return "{" + ", ".join(parts) + "}"


EMPTY_MULTISET = SingularityMultiset()


def multiset(types: Iterable[SingularityType]) -> SingularityMultiset:
    return SingularityMultiset(tuple(types))
