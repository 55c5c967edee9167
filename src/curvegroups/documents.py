"""JSON document schema for curve data, audit reports, and pair records.

Documents carry an explicit schema version and round-trip losslessly.
Output ordering is deterministic (sorted keys, canonical multiset order) so
diffs over fixtures stay meaningful.  Integers above 2^53 - 1 are encoded
as decimal strings to survive consumers that read JSON numbers as doubles.
"""

from __future__ import annotations

import json
from typing import Any

from .constructions import AuditReport, format_spec, parse_spec
from .curves import CurveDatum, LogEntry
from .extensions import (
    Cyclic,
    FiniteTagged,
    Free,
    FreeAbelian,
    GroupDescriptor,
    PropertyFlags,
    Tower,
    _TRISTATE_FIELDS,
    direct_sum,
    format_descriptor,
    parse_descriptor,
    summands,
)
from .fpgroup import Presentation, Word
from .meridians import MeridianState
from .singularities import SingularityMultiset, format_type, multiset, parse_type
from .zariski import ZariskiPairRecord

SCHEMA_VERSION = "1"

_SAFE_BOUND = 2**53 - 1


def encode_int(n: int) -> int | str:
    return n if abs(n) <= _SAFE_BOUND else str(n)


def decode_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer or decimal string, got {value!r}")
    return int(value)


def presentation_to_json(p: Presentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [str(r) for r in p.relators],
    }


def presentation_from_json(data: dict) -> Presentation:
    return Presentation(
        tuple(data["generators"]),
        tuple(Word.parse(r) for r in data["relators"]),
    )


def _group_tree(g: GroupDescriptor) -> dict:
    trees = []
    # a loop, not a comprehension: one stack frame per level of tower nesting
    for kind, value, extra in summands(g):
        if kind == "tower":
            base = _group_tree(value)
            trees.append({"kind": kind, "base": base, "kernels": [encode_int(n) for n in extra]})
        elif kind == "finite":
            pres = None if extra is None else presentation_to_json(extra)
            trees.append({"kind": kind, "order": encode_int(value), "presentation": pres})
        else:
            trees.append({"kind": kind, "order" if kind == "cyclic" else "rank": encode_int(value)})
    return trees[0] if len(trees) == 1 else {"kind": "direct-sum", "parts": trees}


def _group_from_tree(data: dict) -> GroupDescriptor:
    kind = data["kind"]
    if kind == "cyclic":
        return Cyclic(decode_int(data["order"]))
    if kind == "free":
        return Free(decode_int(data["rank"]))
    if kind == "free-abelian":
        return FreeAbelian(decode_int(data["rank"]))
    if kind == "finite":
        pres = data.get("presentation")
        return FiniteTagged(
            decode_int(data["order"]),
            None if pres is None else presentation_from_json(pres),
        )
    if kind == "direct-sum":
        if len(data["parts"]) < 2:
            raise ValueError("a direct sum needs at least two parts")
        return direct_sum(*(_group_from_tree(p) for p in data["parts"]))
    if kind == "tower":
        return Tower(
            _group_from_tree(data["base"]),
            tuple(decode_int(n) for n in data["kernels"]),
        )
    raise ValueError(f"unknown group kind {kind!r}")


def group_to_json(g: GroupDescriptor) -> dict:
    # "form" is the canonical display string; "tree" is the lossless encoding
    return {"form": format_descriptor(g), "tree": _group_tree(g)}


def group_from_json(data: dict) -> GroupDescriptor:
    if "tree" in data:
        return _group_from_tree(data["tree"])
    return parse_descriptor(data["form"])


def props_to_json(p: PropertyFlags) -> dict:
    out: dict[str, Any] = {name: getattr(p, name) for name in _TRISTATE_FIELDS}
    out["p_group"] = None if p.p_group is None else encode_int(p.p_group)
    out["nilpotency_class"] = list(p.nilpotency_class) if p.nilpotency_class else None
    return out


def props_from_json(data: dict, path: str) -> PropertyFlags:
    kw = dict(data)
    unknown = sorted(kw.keys() - {*_TRISTATE_FIELDS, "p_group", "nilpotency_class"})
    if unknown:
        raise ValueError(f"{path}.{unknown[0]}: unknown key")
    cls = kw.get("nilpotency_class")
    kw["nilpotency_class"] = tuple(cls) if cls else None
    if kw.get("p_group") is not None:
        kw["p_group"] = decode_int(kw["p_group"])
    return PropertyFlags(**kw)


def singularities_to_json(s: SingularityMultiset) -> list[str]:
    return [format_type(t) for t in s]


def singularities_from_json(items) -> SingularityMultiset:
    return multiset(parse_type(t) for t in items)


def curve_to_json(c: CurveDatum) -> dict:
    return {
        "component_degrees": [encode_int(d) for d in c.component_degrees],
        "degree": encode_int(c.degree),
        "irreducible": c.irreducible,
        "singularities": singularities_to_json(c.singularities),
        "group": group_to_json(c.group),
        "props": props_to_json(c.props),
        "family_tag": c.family_tag,
        "log": [{"seq": e.seq, "op": e.op, "detail": e.detail} for e in c.log],
    }


def curve_from_json(data: dict, path: str = "curve") -> CurveDatum:
    curve = CurveDatum(
        component_degrees=tuple(decode_int(d) for d in data["component_degrees"]),
        singularities=singularities_from_json(data["singularities"]),
        group=group_from_json(data["group"]),
        props=props_from_json(data["props"], f"{path}.props"),
        family_tag=data.get("family_tag"),
        log=tuple(
            LogEntry(e["seq"], e["op"], e["detail"]) for e in data.get("log", ())
        ),
    )
    declared = decode_int(data["degree"])
    if declared != curve.degree:
        raise ValueError(f"document degree {declared} does not match component degrees")
    return curve


def audit_to_json(report: AuditReport) -> dict:
    return {
        "expected": encode_int(report.expected),
        "computed": encode_int(report.computed),
        "residual": encode_int(report.residual),
        "verdict": report.verdict,
        "variant_residual": None
        if report.variant_residual is None
        else encode_int(report.variant_residual),
    }


def audit_from_json(data: dict) -> AuditReport:
    variant = data.get("variant_residual")
    return AuditReport(
        expected=decode_int(data["expected"]),
        computed=decode_int(data["computed"]),
        residual=decode_int(data["residual"]),
        verdict=data["verdict"],
        variant_residual=None if variant is None else decode_int(variant),
    )


def meridians_to_json(state: MeridianState) -> dict:
    return {
        "exceptional": str(state.exceptional),
        "fibers": {label: str(word) for label, word in state.fibers},
        "trace": list(state.trace),
    }


def pair_to_json(record: ZariskiPairRecord) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "left": curve_to_json(record.left),
        "right": curve_to_json(record.right),
        "combinatorics_equal": record.combinatorics_equal,
        "distinguisher": record.distinguisher,
        "generation": record.generation,
        "parent_spec": None if record.parent_spec is None else format_spec(record.parent_spec),
    }


def pair_from_json(data: dict) -> ZariskiPairRecord:
    spec = data.get("parent_spec")
    return ZariskiPairRecord(
        left=curve_from_json(data["left"], "left"),
        right=curve_from_json(data["right"], "right"),
        combinatorics_equal=data["combinatorics_equal"],
        distinguisher=data["distinguisher"],
        generation=data["generation"],
        parent_spec=None if spec is None else parse_spec(spec),
    )


def render_document(curve: CurveDatum, reports: dict | None = None) -> str:
    doc: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "curve": curve_to_json(curve)}
    if reports:
        doc["reports"] = reports
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_document(text: str) -> tuple[CurveDatum, dict]:
    try:
        data = json.loads(text)
        if "schema_version" not in data:
            raise ValueError("document is missing schema_version")
        if data["schema_version"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {data['schema_version']!r}")
        return curve_from_json(data["curve"]), data.get("reports", {})
    except RecursionError:
        raise ValueError("document is nested too deeply") from None
