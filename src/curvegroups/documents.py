"""JSON document schema for curve data, audit reports, and pair records.

Documents carry an explicit schema version.  Curve documents round-trip
losslessly through :func:`render_document` and :func:`parse_document`;
audit reports, meridian states and pair records are only written.
Output ordering is deterministic (sorted keys, canonical multiset order) so
diffs over fixtures stay meaningful.  Integers above 2^53 - 1 are encoded
as decimal strings to survive consumers that read JSON numbers as doubles.
"""

from __future__ import annotations

import json
from typing import Any

from .constructions import AuditReport, format_spec
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
from .meridians import MeridianState, _format_trace
from .singularities import format_type, multiset, parse_type
from .zariski import ZariskiPairRecord

SCHEMA_VERSION = "1"

_SAFE_BOUND = 2**53 - 1


def encode_int(n: int) -> int | str:
    return n if abs(n) <= _SAFE_BOUND else str(n)


def decode_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer or decimal string, got {value!r}")
    return int(value)


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", type(None): "null"}


def _got(value) -> str:
    return _JSON_TYPES.get(type(value), repr(value))


def _expect(value, kind: type, path: str):
    if type(value) is not kind:
        raise ValueError(f"{path}: expected {_JSON_TYPES[kind]}, got {_got(value)}")
    return value


def _key(data: dict, key: str, path: str):
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{path}.{key}: missing key") from None


def presentation_to_json(p: Presentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [str(r) for r in p.relators],
    }


def _presentation_from_json(data, path: str) -> Presentation:
    _expect(data, dict, path)
    gens = _expect(_key(data, "generators", path), list, f"{path}.generators")
    rels = _expect(_key(data, "relators", path), list, f"{path}.relators")
    return Presentation(
        tuple(_expect(g, str, f"{path}.generators[{i}]") for i, g in enumerate(gens)),
        tuple(Word.parse(_expect(r, str, f"{path}.relators[{i}]")) for i, r in enumerate(rels)),
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


def _group_from_tree(data, path: str) -> GroupDescriptor:
    kind = _key(_expect(data, dict, path), "kind", path)
    if kind == "cyclic":
        return Cyclic(decode_int(_key(data, "order", path)))
    if kind == "free":
        return Free(decode_int(_key(data, "rank", path)))
    if kind == "free-abelian":
        return FreeAbelian(decode_int(_key(data, "rank", path)))
    if kind == "finite":
        pres = data.get("presentation")
        return FiniteTagged(
            decode_int(_key(data, "order", path)),
            None if pres is None else _presentation_from_json(pres, f"{path}.presentation"),
        )
    if kind == "direct-sum":
        parts = _expect(_key(data, "parts", path), list, f"{path}.parts")
        if len(parts) < 2:
            raise ValueError("a direct sum needs at least two parts")
        return direct_sum(*(_group_from_tree(p, f"{path}.parts[{i}]") for i, p in enumerate(parts)))
    if kind == "tower":
        return Tower(
            _group_from_tree(_key(data, "base", path), f"{path}.base"),
            tuple(decode_int(n) for n in _expect(_key(data, "kernels", path), list, f"{path}.kernels")),
        )
    raise ValueError(f"unknown group kind {kind!r}")


def group_to_json(g: GroupDescriptor) -> dict:
    # "form" is the canonical display string; "tree" is the lossless encoding
    return {"form": format_descriptor(g), "tree": _group_tree(g)}


def _group_from_json(data, path: str) -> GroupDescriptor:
    _expect(data, dict, path)
    if "tree" in data:
        return _group_from_tree(data["tree"], f"{path}.tree")
    return parse_descriptor(_expect(_key(data, "form", path), str, f"{path}.form"))


def props_to_json(p: PropertyFlags) -> dict:
    out: dict[str, Any] = {name: getattr(p, name) for name in _TRISTATE_FIELDS}
    out["p_group"] = None if p.p_group is None else encode_int(p.p_group)
    out["nilpotency_class"] = list(p.nilpotency_class) if p.nilpotency_class else None
    return out


def props_from_json(data: dict, path: str) -> PropertyFlags:
    kw = dict(_expect(data, dict, path))
    unknown = sorted(kw.keys() - {*_TRISTATE_FIELDS, "p_group", "nilpotency_class"})
    if unknown:
        raise ValueError(f"{path}.{unknown[0]}: unknown key")
    for name in _TRISTATE_FIELDS:
        value = kw.get(name)
        if value is not None and type(value) is not bool:
            raise ValueError(f"{path}.{name}: expected true, false or null, got {_got(value)}")
    cls = kw.get("nilpotency_class")
    if cls is not None:
        cls = tuple(_expect(cls, list, f"{path}.nilpotency_class"))
    kw["nilpotency_class"] = cls or None
    if kw.get("p_group") is not None:
        kw["p_group"] = decode_int(kw["p_group"])
    return PropertyFlags(**kw)


def curve_to_json(c: CurveDatum) -> dict:
    return {
        "component_degrees": [encode_int(d) for d in c.component_degrees],
        "degree": encode_int(c.degree),
        "irreducible": c.irreducible,
        "singularities": [format_type(t) for t in c.singularities],
        "group": group_to_json(c.group),
        "props": props_to_json(c.props),
        "family_tag": c.family_tag,
        "log": [{"seq": e.seq, "op": e.op, "detail": e.detail} for e in c.log],
    }


def curve_from_json(data: dict, path: str = "curve") -> CurveDatum:
    _expect(data, dict, path)
    degrees = _expect(_key(data, "component_degrees", path), list, f"{path}.component_degrees")
    types = _expect(_key(data, "singularities", path), list, f"{path}.singularities")
    tag = data.get("family_tag")
    if tag is not None and type(tag) is not str:
        raise ValueError(f"{path}.family_tag: expected a string or null, got {_got(tag)}")
    curve = CurveDatum(
        component_degrees=tuple(decode_int(d) for d in degrees),
        singularities=multiset(parse_type(t) for t in types),
        group=_group_from_json(_key(data, "group", path), f"{path}.group"),
        props=props_from_json(_key(data, "props", path), f"{path}.props"),
        family_tag=tag,
        log=_log_from_json(data.get("log", []), f"{path}.log"),
    )
    declared = decode_int(_key(data, "degree", path))
    if declared != curve.degree:
        raise ValueError(f"document degree {declared} does not match component degrees")
    irreducible = data.get("irreducible", curve.irreducible)
    if irreducible is not curve.irreducible:
        got = json.dumps(irreducible) if type(irreducible) is bool else _got(irreducible)
        raise ValueError(f"{path}.irreducible: expected {json.dumps(curve.irreducible)}, got {got}")
    return curve


def _log_from_json(entries, path: str) -> tuple[LogEntry, ...]:
    log = []
    for i, e in enumerate(_expect(entries, list, path)):
        at = f"{path}[{i}]"
        seq = _key(_expect(e, dict, at), "seq", at)
        if type(seq) is not int or seq != i:
            raise ValueError(f"{at}.seq: expected {i}, got {_got(seq)}")
        op = _expect(_key(e, "op", at), str, f"{at}.op")
        log.append(LogEntry(i, op, _expect(_key(e, "detail", at), str, f"{at}.detail")))
    return tuple(log)


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


def meridians_to_json(state: MeridianState) -> dict:
    return {
        "exceptional": str(state.exceptional),
        "fibers": {label: str(word) for label, word in state.fibers},
        "trace": _format_trace(state.trace),
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


def render_json(payload) -> str:
    """The text of a JSON document: sorted keys, two-space indent, final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_document(curve: CurveDatum, reports: dict | None = None) -> str:
    doc: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "curve": curve_to_json(curve)}
    if reports:
        doc["reports"] = reports
    return render_json(doc)


def parse_document(text: str) -> tuple[CurveDatum, dict]:
    try:
        data = _expect(json.loads(text), dict, "document")
        if "schema_version" not in data:
            raise ValueError("document is missing schema_version")
        if data["schema_version"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {data['schema_version']!r}")
        return curve_from_json(data["curve"]), data.get("reports", {})
    except RecursionError:
        raise ValueError("document is nested too deeply") from None
