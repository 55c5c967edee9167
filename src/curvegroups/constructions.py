"""The Cremona constructions as curve-datum transformers.

Each construction blows up a common point of auxiliary lines, runs a
schedule of elementary transformations between Hirzebruch surfaces, and
blows back down.  On the combinatorial side this multiplies every component
degree by the kernel order N, adds a known multiset of singularities, and
extends the fundamental group centrally by Z/N.

Four schedules are supported (text forms in parentheses):

* ``Uludag(n)`` (``uludag(n)``): all index-raising steps on one fiber and
  all lowering steps on another; N = n + 1.
* ``General(n1..nk)`` (``general(n1,..,nk)``): raising steps spread over k
  fibers; N = sum(n) + 1.
* ``Mixed(n1..nk; m1..ml)`` (``mixed(n1,..;m1,..)``): lowering steps also
  spread over l fibers, sum(m) = sum(n); N = sum(n) + 1.
* ``Special(n)`` (``special(n)``): both phases on a single fiber; N = n + 1.

:func:`audit_self_intersection` closes the degree formula against the
singularity bookkeeping: the new squared degree minus all resolution drops
must equal the old squared degree.  The Special schedule's recorded
blow-down type fails this audit by exactly 3 n^2 d^2; the report also
evaluates the accounting-consistent variant with head multiplicity n*d,
which passes.  Both values are kept and nothing is decided.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Union

from .curves import CurveDatum
from .extensions import (
    central_extend,
    propagate_properties,
    props_from_descriptor,
)
from .singularities import (
    SingularityMultiset,
    SingularityType,
    blowdown_type,
    drop,
    multiset,
)


@dataclass(frozen=True)
class Uludag:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"transformation count must be >= 1, got {self.n}")

    @property
    def kernel_order(self) -> int:
        return self.n + 1


@dataclass(frozen=True)
class General:
    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(n) for n in self.counts)
        if not counts or any(n < 1 for n in counts):
            raise ValueError(f"counts must be a nonempty tuple of integers >= 1, got {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def kernel_order(self) -> int:
        return sum(self.counts) + 1


@dataclass(frozen=True)
class Mixed:
    raise_counts: tuple[int, ...]
    lower_counts: tuple[int, ...]

    def __post_init__(self):
        ns = tuple(int(n) for n in self.raise_counts)
        ms = tuple(int(m) for m in self.lower_counts)
        if not ns or any(n < 1 for n in ns) or not ms or any(m < 1 for m in ms):
            raise ValueError("both count tuples must be nonempty with all entries >= 1")
        if sum(ns) != sum(ms):
            raise ValueError(
                f"mixed construction requires sum of raise counts = sum of lower counts, got {sum(ns)} != {sum(ms)}"
            )
        object.__setattr__(self, "raise_counts", ns)
        object.__setattr__(self, "lower_counts", ms)

    @property
    def kernel_order(self) -> int:
        return sum(self.raise_counts) + 1


@dataclass(frozen=True)
class Special:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"transformation count must be >= 1, got {self.n}")

    @property
    def kernel_order(self) -> int:
        return self.n + 1


ConstructionSpec = Union[Uludag, General, Mixed, Special]


def kernel_order(spec: ConstructionSpec) -> int:
    return spec.kernel_order


def format_spec(spec: ConstructionSpec) -> str:
    if isinstance(spec, Uludag):
        return f"uludag({spec.n})"
    if isinstance(spec, General):
        return f"general({','.join(map(str, spec.counts))})"
    if isinstance(spec, Mixed):
        ns = ",".join(map(str, spec.raise_counts))
        ms = ",".join(map(str, spec.lower_counts))
        return f"mixed({ns};{ms})"
    if isinstance(spec, Special):
        return f"special({spec.n})"
    raise TypeError(f"unknown construction spec {spec!r}")


_SPEC_RE = re.compile(r"^\s*([a-z]+)\s*\((.*)\)\s*$")


def _int_list(text: str, context: str) -> tuple[int, ...]:
    items = []
    for tok in text.split(","):
        tok = tok.strip()
        if not re.fullmatch(r"-?\d+", tok or ""):
            raise ValueError(f"bad integer {tok!r} in {context}")
        items.append(int(tok))
    return tuple(items)


def parse_spec(text: str) -> ConstructionSpec:
    """Parse ``uludag(3)``, ``general(1,2,2)``, ``mixed(2,1;1,1,1)``,
    ``special(2)``."""
    m = _SPEC_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse construction spec {text!r}")
    name, args = m.group(1), m.group(2)
    if name in ("uludag", "special"):
        values = _int_list(args, text)
        if len(values) != 1:
            raise ValueError(f"{name} takes exactly one count, got {len(values)} in {text!r}")
        return Uludag(values[0]) if name == "uludag" else Special(values[0])
    if name == "general":
        return General(_int_list(args, text))
    if name == "mixed":
        if ";" not in args:
            raise ValueError(f"mixed spec needs ';' between raise and lower counts: {text!r}")
        raw_ns, raw_ms = args.split(";", 1)
        return Mixed(_int_list(raw_ns, text), _int_list(raw_ms, text))
    raise ValueError(f"unknown construction {name!r} in {text!r}")


def degree_after(degree: int, spec: ConstructionSpec) -> int:
    """Degree of the transformed curve: d * N."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return degree * spec.kernel_order


def _mult_run(value: int, length: int) -> SingularityType:
    # storage-level constructor: multiplicity-1 bookkeeping entries allowed
    return SingularityType((value,) * length)


def _blowdown(head: int, branch_mult: int, length: int) -> SingularityType:
    if head >= 2:
        return blowdown_type(head, [_mult_run(branch_mult, length)])
    return SingularityType((head,) + (branch_mult,) * length)


def special_blowdown_type(degree: int, n: int, recorded_head: bool = True) -> SingularityType:
    """Blow-down type of the single-fiber schedule.  ``recorded_head=True``
    gives the recorded head multiplicity 2*n*d; False gives the
    accounting-consistent variant head n*d."""
    head = (2 if recorded_head else 1) * n * degree
    return _blowdown(head, degree, 2 * n)


def added_singularities(degree: int, spec: ConstructionSpec) -> SingularityMultiset:
    """Singularities the construction adds to a curve of the given degree.

    Degree 1 is permitted: the resulting multiplicity-1 entries are pure
    bookkeeping that keeps the self-intersection audit exact.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    d = degree
    if isinstance(spec, Uludag):
        spec = General((spec.n,))
    if isinstance(spec, General):
        total = sum(spec.counts)
        types = [_mult_run(d, n) for n in spec.counts]
        types.append(_blowdown(d * total, d, total))
        return multiset(types)
    if isinstance(spec, Mixed):
        total = sum(spec.raise_counts)
        types = [_mult_run(d, n) for n in spec.raise_counts]
        if len(spec.lower_counts) == 1:
            types.append(_blowdown(d * total, d, total))
        else:
            clusters = [_mult_run(d, m) for m in spec.lower_counts]
            types.append(blowdown_type(d * total, clusters))
        return multiset(types)
    if isinstance(spec, Special):
        return multiset([special_blowdown_type(d, spec.n, recorded_head=True)])
    raise TypeError(f"unknown construction spec {spec!r}")


VERDICT_PASS = "pass"
VERDICT_DISCREPANCY = "discrepancy"


@dataclass(frozen=True)
class AuditReport:
    """Self-intersection closure check for one construction step.

    ``computed`` is the new squared degree minus the resolution drops of all
    added singularities; it must equal ``expected`` = d^2.  For the Special
    schedule ``variant_residual`` re-evaluates the audit with the
    accounting-consistent head multiplicity n*d.
    """

    expected: int
    computed: int
    residual: int
    verdict: str
    variant_residual: int | None = None

    def __post_init__(self):
        if (self.residual == 0) != (self.verdict == VERDICT_PASS):
            raise ValueError("verdict must be pass exactly when the residual is zero")


def audit_self_intersection(degree: int, spec: ConstructionSpec) -> AuditReport:
    """Check d_new^2 - sum(drops of added singularities) = d^2."""
    return _audit(degree, spec, added_singularities(degree, spec))


def _audit(degree: int, spec: ConstructionSpec, added: SingularityMultiset) -> AuditReport:
    # ``added`` must be added_singularities(degree, spec)
    d = degree
    d_new = degree_after(d, spec)
    total_drop = sum(drop(t) for t in added)
    computed = d_new * d_new - total_drop
    residual = computed - d * d
    variant = None
    if isinstance(spec, Special):
        variant_drop = drop(special_blowdown_type(d, spec.n, recorded_head=False))
        variant = d_new * d_new - variant_drop - d * d
    return AuditReport(
        expected=d * d,
        computed=computed,
        residual=residual,
        verdict=VERDICT_PASS if residual == 0 else VERDICT_DISCREPANCY,
        variant_residual=variant,
    )


def apply(curve: CurveDatum, spec: ConstructionSpec) -> CurveDatum:
    """Transform a curve datum: degrees scale by N, the added singularity
    multiset is joined in, and the group extends centrally by Z/N.

    The component count is preserved and every component degree scales by
    the same N, because a single global birational map carries each
    component to its transform.
    """
    n = spec.kernel_order
    group = central_extend(
        curve.group, n, irreducible=curve.irreducible, family_tag=curve.family_tag
    )
    props = propagate_properties(curve.props, n)
    props = props.merged(props_from_descriptor(group))
    added = added_singularities(curve.degree, spec)
    report = _audit(curve.degree, spec, added)
    detail = f"{format_spec(spec)} N={n} degree {curve.degree}->{curve.degree * n} audit={report.verdict}"
    if report.variant_residual is not None:
        detail += f" residual={report.residual} variant_residual={report.variant_residual}"
    new = replace(
        curve,
        component_degrees=tuple(d * n for d in curve.component_degrees),
        singularities=curve.singularities + added,
        group=group,
        props=props,
    )
    return new.logged("apply", detail)
