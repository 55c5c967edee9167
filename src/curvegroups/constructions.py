"""The Cremona constructions as curve-datum transformers.

Each construction blows up a common point of auxiliary lines, runs a
schedule of elementary transformations between Hirzebruch surfaces, and
blows back down.  On the combinatorial side this multiplies every component
degree by the kernel order N, adds a known multiset of singularities, and
extends the fundamental group centrally by Z/N.

Every construction is one :class:`Schedule`: index-raising steps on fibers
with counts n1..nk, then index-lowering steps on fibers with counts m1..ml,
where sum(m) = sum(n) and N = sum(n) + 1.  Its text form names the layout:
``uludag(n)`` raises on one fiber and lowers on another,
``general(n1,..,nk)`` spreads the raising steps over k fibers,
``mixed(n1,..,nk;m1,..,ml)`` spreads the lowering steps as well, and
``special(n)`` runs both phases on a single fiber.

:func:`audit_self_intersection` closes the degree formula against the
singularity bookkeeping: the new squared degree minus all resolution drops
must equal the old squared degree.  The special schedule's recorded
blow-down type fails this audit by exactly 3 n^2 d^2; the report also
evaluates the accounting-consistent variant with head multiplicity n*d,
which passes.  Both values are kept and nothing is decided.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .curves import CurveDatum
from .extensions import (
    GroupDescriptor,
    PropertyFlags,
    central_extend,
    propagate_properties,
    props_from_descriptor,
)
from .fpgroup import _require_ints
from .singularities import (
    SingularityMultiset,
    SingularityType,
    blowdown_type,
    drop,
    multiset,
)

_FORMS = ("uludag", "general", "mixed", "special")


@dataclass(frozen=True)
class Schedule:
    """A construction schedule.  The form is part of the value, so
    ``uludag(3)``, ``general(3)`` and ``mixed(3;3)`` are unequal although
    they add the same singularities.  Forms other than mixed lower on one
    fiber: their ``lower_counts`` default to ``(sum(raise_counts),)``."""

    form: str
    raise_counts: tuple[int, ...]
    lower_counts: tuple[int, ...] = ()

    def __post_init__(self):
        if self.form not in _FORMS:
            raise ValueError(f"unknown construction {self.form!r}")
        ns, ms = tuple(self.raise_counts), tuple(self.lower_counts)
        _require_ints("raise counts", ns, 1)
        _require_ints("lower counts", ms, 1)
        if self.form != "mixed":
            ms = ms or (sum(ns),)
            if len(ms) != 1 or (self.form != "general" and len(ns) != 1):
                raise ValueError(f"{self.form} cannot have raise counts {ns} and lower counts {ms}")
        if not ns or not ms:
            raise ValueError(f"{self.form} needs at least one raise count and one lower count")
        if sum(ns) != sum(ms):
            raise ValueError(
                f"{self.form} construction requires sum of raise counts = sum of lower counts, got {sum(ns)} != {sum(ms)}"
            )
        object.__setattr__(self, "raise_counts", ns)
        object.__setattr__(self, "lower_counts", ms)

    @property
    def counts(self) -> tuple[int, ...]:
        return self.raise_counts

    @property
    def kernel_order(self) -> int:
        return sum(self.raise_counts) + 1


def Uludag(n: int) -> Schedule:
    return Schedule("uludag", (n,))


def General(counts) -> Schedule:
    return Schedule("general", counts)


def Mixed(raise_counts, lower_counts) -> Schedule:
    return Schedule("mixed", raise_counts, lower_counts)


def Special(n: int) -> Schedule:
    return Schedule("special", (n,))


def kernel_order(spec: Schedule) -> int:
    return spec.kernel_order


def format_spec(spec: Schedule) -> str:
    text = ",".join(map(str, spec.raise_counts))
    if spec.form == "mixed":
        text += ";" + ",".join(map(str, spec.lower_counts))
    return f"{spec.form}({text})"


_SPEC_RE = re.compile(r"^\s*([a-z]+)\s*\((.*)\)\s*$")


def _int_list(text: str, context: str) -> tuple[int, ...]:
    items = []
    for tok in text.split(","):
        tok = tok.strip()
        if not re.fullmatch(r"-?\d+", tok or ""):
            raise ValueError(f"bad integer {tok!r} in {context}")
        items.append(int(tok))
    return tuple(items)


def parse_spec(text: str) -> Schedule:
    """Parse ``uludag(3)``, ``general(1,2,2)``, ``mixed(2,1;1,1,1)``,
    ``special(2)``."""
    m = _SPEC_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse construction spec {text!r}")
    name, args = m.group(1), m.group(2)
    if name not in _FORMS:
        raise ValueError(f"unknown construction {name!r} in {text!r}")
    if name == "mixed" and ";" not in args:
        raise ValueError(f"mixed spec needs ';' between raise and lower counts: {text!r}")
    groups = args.split(";", 1) if name == "mixed" else [args]
    counts = [_int_list(group, text) for group in groups]
    if name in ("uludag", "special") and len(counts[0]) != 1:
        raise ValueError(f"{name} takes exactly one count, got {len(counts[0])} in {text!r}")
    return Schedule(name, *counts)


def degree_after(degree: int, spec: Schedule) -> int:
    """Degree of the transformed curve: d * N."""
    _require_ints("degrees", (degree,), 1)
    return degree * spec.kernel_order


def _mult_run(value: int, length: int) -> SingularityType:
    # storage-level constructor: multiplicity-1 bookkeeping entries allowed
    return SingularityType.from_runs(((value, length),))


def _blowdown(head: int, clusters: list[SingularityType]) -> SingularityType:
    if head >= 2:
        return blowdown_type(head, clusters)
    # head 1 (degree 1 and a single step) is bookkeeping that blowdown_type
    # refuses; there is exactly one cluster then
    return SingularityType.from_runs(((head, 1),) + clusters[0].runs)


def special_blowdown_type(degree: int, n: int, recorded_head: bool = True) -> SingularityType:
    """Blow-down type of the single-fiber schedule.  ``recorded_head=True``
    gives the recorded head multiplicity 2*n*d; False gives the
    accounting-consistent variant head n*d."""
    head = (2 if recorded_head else 1) * n * degree
    return _blowdown(head, [_mult_run(degree, 2 * n)])


def added_singularities(degree: int, spec: Schedule) -> SingularityMultiset:
    """Singularities the construction adds to a curve of the given degree:
    a run ``[d_n]`` per raising fiber, and the lowering fibers' runs
    ``[d_m]`` blown down under a point of multiplicity d*sum(n).  The special
    schedule adds only its single-fiber blow-down.

    Degree 1 is permitted: the resulting multiplicity-1 entries are pure
    bookkeeping that keeps the self-intersection audit exact.
    """
    _require_ints("degrees", (degree,), 1)
    d, total = degree, sum(spec.raise_counts)
    if spec.form == "special":
        return multiset([special_blowdown_type(d, total, recorded_head=True)])
    types = [_mult_run(d, n) for n in spec.raise_counts]
    types.append(_blowdown(d * total, [_mult_run(d, m) for m in spec.lower_counts]))
    return multiset(types)


VERDICT_PASS = "pass"
VERDICT_DISCREPANCY = "discrepancy"


@dataclass(frozen=True)
class AuditReport:
    """Self-intersection closure check for one construction step.

    ``computed`` is the new squared degree minus the resolution drops of all
    added singularities; it must equal ``expected`` = d^2.  For the special
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


def audit_self_intersection(degree: int, spec: Schedule) -> AuditReport:
    """Check d_new^2 - sum(drops of added singularities) = d^2."""
    return _audit(degree, spec, added_singularities(degree, spec))


def _audit(degree: int, spec: Schedule, added: SingularityMultiset) -> AuditReport:
    # ``added`` must be added_singularities(degree, spec)
    d = degree
    d_new = degree_after(d, spec)
    total_drop = sum(drop(t) for t in added)
    computed = d_new * d_new - total_drop
    residual = computed - d * d
    variant = None
    if spec.form == "special":
        variant_drop = drop(special_blowdown_type(d, spec.raise_counts[0], recorded_head=False))
        variant = d_new * d_new - variant_drop - d * d
    return AuditReport(
        expected=d * d,
        computed=computed,
        residual=residual,
        verdict=VERDICT_PASS if residual == 0 else VERDICT_DISCREPANCY,
        variant_residual=variant,
    )


def apply(curve: CurveDatum, spec: Schedule) -> CurveDatum:
    """Transform a curve datum: degrees scale by N, the added singularity
    multiset is joined in, and the group extends centrally by Z/N.

    The component count is preserved and every component degree scales by
    the same N, because a single global birational map carries each
    component to its transform.

    The work falls into two steps.  The group step reads only the curve's
    group, flags, irreducibility and family tag, and N; the combinatorial
    step reads only the degrees, singularities and log, the spec, and the
    added multiset, which depends on the degree and the spec alone.  So
    :mod:`.zariski` can compute the group step once per N and the added
    multiset once per spec, and hand them to the combinatorial step.
    """
    group, props = _group_step(curve, spec.kernel_order)
    return _combinatorial_step(curve, spec, added_singularities(curve.degree, spec), group, props)


def _group_step(curve: CurveDatum, n: int) -> tuple[GroupDescriptor, PropertyFlags]:
    group = central_extend(
        curve.group, n, irreducible=curve.irreducible, family_tag=curve.family_tag
    )
    props = propagate_properties(curve.props, n)
    return group, props.merged(props_from_descriptor(group))


def _combinatorial_step(
    curve: CurveDatum,
    spec: Schedule,
    added: SingularityMultiset,
    group: GroupDescriptor,
    props: PropertyFlags,
) -> CurveDatum:
    # ``added`` must be added_singularities(curve.degree, spec), and
    # (group, props) must be _group_step(curve, spec.kernel_order)
    n = spec.kernel_order
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
