"""JSON document schema for curve data, audit reports, and pair records.

Documents carry an explicit schema version.  Curve documents round-trip
losslessly through :func:`render_document` and :func:`parse_document`;
audit reports, meridian states and pair records are only written.  The
reader names the path of every field it refuses, including a key it does
not know and a required key that is absent.
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


def decode_int(value, path: str) -> int:
    """The integer at ``path``: a JSON integer, or a decimal string."""
    if type(value) is int:
        return value
    if type(value) is str:
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{path}: expected an integer or decimal string, got {_shown(value)}")


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string"}


def _got(value) -> str:
    """A JSON value as an error message names it: its kind for objects,
    arrays and strings, its JSON text for other scalars."""
    return _JSON_TYPES.get(type(value)) or json.dumps(value)


def _shown(value) -> str:
    """Like :func:`_got`, but a string is shown as its JSON text."""
    return json.dumps(value) if type(value) is str else _got(value)


def _at(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValueError it raises reported at
    ``path``.  The reader calls every constructor and parser through it."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parsed(parse, text, path: str):
    """``parse(text)`` once ``text`` is a JSON string, errors reported at ``path``."""
    return _at(path, parse, _expect(text, str, path))


def _expect(value, kind: type, path: str):
    if type(value) is not kind:
        raise ValueError(f"{path}: expected {_JSON_TYPES[kind]}, got {_got(value)}")
    return value


def _keys(required: str, optional: str = "") -> tuple[frozenset, frozenset]:
    """The key rule of one kind of object: (required keys, allowed keys)."""
    needed = frozenset(required.split())
    return needed, needed | frozenset(optional.split())


def _fields(data, path: str, keys: tuple[frozenset, frozenset]) -> dict:
    """``data`` once it is an object with every required key of ``keys``
    and no other key than its allowed ones; an unknown key is named first."""
    required, allowed = keys
    have = _expect(data, dict, path).keys()
    if have <= allowed and required <= have:
        return data
    unknown = sorted(have - allowed)
    if unknown:
        raise ValueError(f"{path}.{unknown[0]}: unknown key")
    raise ValueError(f"{path}.{min(required - have)}: missing key")


_DOCUMENT_KEYS = _keys("schema_version curve", "reports")
_CURVE_KEYS = _keys("component_degrees degree singularities group props", "irreducible family_tag log")
_GROUP_FORM_KEYS = _keys("form")
_GROUP_TREE_KEYS = _keys("tree", "form")
_PRESENTATION_KEYS = _keys("generators relators")
_LOG_KEYS = _keys("seq op detail")
_PROPS_KEYS = _keys("", " ".join(_TRISTATE_FIELDS) + " p_group nilpotency_class")
_NODE_KEYS = {
    "cyclic": _keys("kind order"),
    "free": _keys("kind rank"),
    "free-abelian": _keys("kind rank"),
    "finite": _keys("kind order", "presentation"),
    "direct-sum": _keys("kind parts"),
    "tower": _keys("kind base kernels"),
}
_ANY_NODE_KEYS = _keys("kind", "order rank presentation parts base kernels")
_ATOMS = {"cyclic": Cyclic, "free": Free, "free-abelian": FreeAbelian}


def presentation_to_json(p: Presentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [str(r) for r in p.relators],
    }


def _presentation_from_json(data, path: str) -> Presentation:
    _fields(data, path, _PRESENTATION_KEYS)
    gens = _expect(data["generators"], list, f"{path}.generators")
    rels = _expect(data["relators"], list, f"{path}.relators")
    return _at(
        path,
        Presentation,
        tuple(_expect(g, str, f"{path}.generators[{i}]") for i, g in enumerate(gens)),
        tuple(_parsed(Word.parse, r, f"{path}.relators[{i}]") for i, r in enumerate(rels)),
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
    kind = _fields(data, path, _ANY_NODE_KEYS)["kind"]
    if type(kind) is not str or kind not in _NODE_KEYS:
        raise ValueError(f"{path}.kind: unknown group kind {_shown(kind)}")
    _fields(data, path, _NODE_KEYS[kind])
    if kind in _ATOMS:
        field = "order" if kind == "cyclic" else "rank"
        return _at(f"{path}.{field}", _ATOMS[kind], decode_int(data[field], f"{path}.{field}"))
    if kind == "finite":
        pres = data.get("presentation")
        return _at(
            f"{path}.order",
            FiniteTagged,
            decode_int(data["order"], f"{path}.order"),
            None if pres is None else _presentation_from_json(pres, f"{path}.presentation"),
        )
    if kind == "direct-sum":
        parts = _expect(data["parts"], list, f"{path}.parts")
        if len(parts) < 2:
            raise ValueError(f"{path}.parts: a direct sum needs at least two parts")
        return direct_sum(*(_group_from_tree(p, f"{path}.parts[{i}]") for i, p in enumerate(parts)))
    kernels = _expect(data["kernels"], list, f"{path}.kernels")
    return _at(
        f"{path}.kernels",
        Tower,
        _group_from_tree(data["base"], f"{path}.base"),
        tuple(decode_int(n, f"{path}.kernels[{i}]") for i, n in enumerate(kernels)),
    )


def group_to_json(g: GroupDescriptor) -> dict:
    # "form" is the canonical display string; "tree" is the lossless encoding
    return {"form": format_descriptor(g), "tree": _group_tree(g)}


def _group_from_json(data, path: str) -> GroupDescriptor:
    if "tree" in _expect(data, dict, path):  # lossless; "form" is then only for display
        return _group_from_tree(_fields(data, path, _GROUP_TREE_KEYS)["tree"], f"{path}.tree")
    return _parsed(parse_descriptor, _fields(data, path, _GROUP_FORM_KEYS)["form"], f"{path}.form")


def props_to_json(p: PropertyFlags) -> dict:
    out: dict[str, Any] = {name: getattr(p, name) for name in _TRISTATE_FIELDS}
    out["p_group"] = None if p.p_group is None else encode_int(p.p_group)
    out["nilpotency_class"] = list(p.nilpotency_class) if p.nilpotency_class else None
    return out


def props_from_json(data: dict, path: str) -> PropertyFlags:
    kw = dict(_fields(data, path, _PROPS_KEYS))
    for name in _TRISTATE_FIELDS:
        value = kw.get(name)
        if value is not None and type(value) is not bool:
            raise ValueError(f"{path}.{name}: expected true, false or null, got {_got(value)}")
    cls = kw.get("nilpotency_class")
    if cls is not None:
        if len(_expect(cls, list, f"{path}.nilpotency_class")) != 2:
            raise ValueError(f"{path}.nilpotency_class: expected [lo, hi], got {json.dumps(cls)}")
        kw["nilpotency_class"] = tuple(decode_int(n, f"{path}.nilpotency_class[{i}]") for i, n in enumerate(cls))
    if kw.get("p_group") is not None:
        kw["p_group"] = decode_int(kw["p_group"], f"{path}.p_group")
    return _at(path, PropertyFlags, **kw)


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
    _fields(data, path, _CURVE_KEYS)
    degrees = _expect(data["component_degrees"], list, f"{path}.component_degrees")
    types = _expect(data["singularities"], list, f"{path}.singularities")
    tag = data.get("family_tag")
    if tag is not None and type(tag) is not str:
        raise ValueError(f"{path}.family_tag: expected a string or null, got {_got(tag)}")
    curve = _at(
        path,
        CurveDatum,
        component_degrees=tuple(decode_int(d, f"{path}.component_degrees[{i}]") for i, d in enumerate(degrees)),
        singularities=multiset(_parsed(parse_type, t, f"{path}.singularities[{i}]") for i, t in enumerate(types)),
        group=_group_from_json(data["group"], f"{path}.group"),
        props=props_from_json(data["props"], f"{path}.props"),
        family_tag=tag,
        log=_log_from_json(data.get("log", []), f"{path}.log"),
    )
    declared = decode_int(data["degree"], f"{path}.degree")
    if declared != curve.degree:
        raise ValueError(f"{path}.degree: expected {curve.degree}, the sum of component_degrees, got {declared}")
    irreducible = data.get("irreducible", curve.irreducible)
    if irreducible is not curve.irreducible:
        raise ValueError(f"{path}.irreducible: expected {_got(curve.irreducible)}, got {_got(irreducible)}")
    return curve


def _log_from_json(entries, path: str) -> tuple[LogEntry, ...]:
    log = []
    for i, e in enumerate(_expect(entries, list, path)):
        at = f"{path}[{i}]"
        seq = _fields(e, at, _LOG_KEYS)["seq"]
        if type(seq) is not int or seq != i:
            raise ValueError(f"{at}.seq: expected {i}, got {_got(seq)}")
        op = _expect(e["op"], str, f"{at}.op")
        log.append(LogEntry(i, op, _expect(e["detail"], str, f"{at}.detail")))
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
        version = data["schema_version"]
        if version != SCHEMA_VERSION:
            raise ValueError(f"document.schema_version: expected {_shown(SCHEMA_VERSION)}, got {_shown(version)}")
        _fields(data, "document", _DOCUMENT_KEYS)
        return curve_from_json(data["curve"]), data.get("reports", {})
    except RecursionError:
        raise ValueError("document is nested too deeply") from None
