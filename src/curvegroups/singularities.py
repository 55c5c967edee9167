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

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
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
    if not elide_ones and "_text" in t.__dict__:
        return t._text
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
    text = "[" + ",".join(parts) + "]"
    if not elide_ones:
        object.__setattr__(t, "_text", text)  # cached like type_key's _key
    return text


# parsing, in one left-to-right pass.  An item is an integer, an optional
# "_count" and what follows it: "," (another item), "]" (the type closes)
# or ",(" (the integer is the head of a blow-down whose clusters follow);
# whitespace may sit between any two tokens.  Open blow-downs wait on an
# explicit stack, so nesting depth costs no stack frames.

_ITEM = re.compile(r"\s*(?P<value>\d*)(?:\s*_\s*(?P<count>\d*))?\s*(?P<delim>,\s*\(|[,\]]?)")
_NEXT = re.compile(r"\s*(.?)", re.DOTALL)  # the next non-space character, "" at the end

# parse_type interns short texts; types are immutable, so sharing is safe
_INTERNED_TYPES = 1024
_INTERNED_CHARS = 512


def _error(text: str, pos: int, message: str) -> ValueError:
    return ValueError(f"bad singularity type at position {pos}: {message} in {text!r}")


def _expect(text: str, pos: int, ch: str) -> int:
    m = _NEXT.match(text, pos)
    if m[1] != ch:
        raise _error(text, m.start(1), f"expected {ch!r}")
    return m.end()


def _parse(text: str) -> SingularityType:
    open_downs: list[tuple[list[Run], int, list[SingularityType]]] = []  # (enclosing runs, head, clusters)
    runs: list[Run] = []
    pos = _expect(text, 0, "[")
    while True:
        m = _ITEM.match(text, pos)
        if not m["value"]:
            raise _error(text, m.start("value"), "expected an integer")
        value, count, delim = int(m["value"]), m["count"], m["delim"]
        if count is not None:
            if not count:
                raise _error(text, m.start("count"), "expected an integer")
            count = int(count)
            if count < 1:
                raise _error(text, m.end("count"), "run length must be >= 1")
        pos = m.end()
        if not delim:
            raise _error(text, pos, "expected ']'")
        if len(delim) > 1:  # ",(" opens a blow-down, but not after a run
            if count is not None:
                raise _error(text, pos - 1, "expected an integer")
            open_downs.append((runs, value, []))
            runs = []
            pos = _expect(text, _expect(text, pos, "|"), "[")
            continue
        runs.append((value, count or 1))
        if delim == ",":
            continue
        # "]": close this type, then every blow-down and type that ends with it
        while True:
            t = SingularityType.from_runs(runs)
            if not open_downs:
                m = _NEXT.match(text, pos)
                if m[1]:
                    raise _error(text, m.start(1), "trailing characters")
                return t
            runs, head, clusters = open_downs[-1]
            clusters.append(t)
            m = _NEXT.match(text, _expect(text, pos, "|"))
            if m[1] == ",":
                pos = _expect(text, _expect(text, m.end(), "|"), "[")
                runs = []
                break
            if m[1] != ")":
                raise _error(text, m.start(1), "expected ')'")
            open_downs.pop()
            runs.append((BlowdownEntry(head, tuple(clusters)), 1))
            m = _NEXT.match(text, m.end())
            pos = m.end()
            if m[1] == ",":
                break
            if m[1] != "]":
                raise _error(text, m.start(1), "expected ']'")


_parse_interned = lru_cache(maxsize=_INTERNED_TYPES)(_parse)


def parse_type(text: str) -> SingularityType:
    """Parse the text form of a singularity type.  Texts up to
    ``_INTERNED_CHARS`` characters are interned: the same text returns the
    same object, from a cache of at most ``_INTERNED_TYPES`` entries.

    >>> parse_type(" [ 6 , ( | [2_2] | , | [2] | ) ] ") == parse_type("[6,(|[2,2]|,|[2]|)]")
    True
    """
    if not isinstance(text, str):
        raise ValueError(f"singularity types must be strings, got {text!r}")
    return _parse_interned(text) if len(text) <= _INTERNED_CHARS else _parse(text)


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
