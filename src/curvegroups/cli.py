"""Command-line front end for batch construction, auditing, and pair lifting.

Commands: ``seed``, ``apply``, ``audit``, ``meridians``, ``zariski``.
Documents travel as JSON on file paths or standard input/output;
diagnostics go to standard error.  Exit status is 0 exactly when the
command succeeded; an audit discrepancy is a finding, not a failure, and
exits 0 with ``"verdict": "discrepancy"`` in the report.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import documents
from .constructions import _int_list, audit_self_intersection, parse_spec
from .constructions import apply as apply_construction
from .curves import custom_seed, seed_generic_lines, seed_pencil, seed_smooth
from .extensions import PropertyFlags, parse_descriptor
from .meridians import replay, trace_lines
from .singularities import multiset, parse_type
from .zariski import enumerate_family, lift_pair, seed_pair


class CommandError(Exception):
    pass


def _read_document(path: str | None):
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CommandError(f"cannot read document: {exc}")
    try:
        return documents.parse_document(text)
    except (ValueError, KeyError) as exc:
        raise CommandError(f"bad document: {exc}")


def _write(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


_TRUTHY = {"true": True, "false": False}


def _parse_assertions(items) -> PropertyFlags | None:
    if not items:
        return None
    kw = {}
    for item in items:
        if "=" not in item:
            raise CommandError(f"assertion must look like name=true|false, got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        value = value.strip().lower()
        at = f"--assertion {item!r}"
        if name not in documents._PROPS_KEYS[1]:  # the keys a document's props may hold
            raise CommandError(f"{at}: unknown property {name!r}")
        if name == "p_group":
            kw[name] = documents.decode_int(value, at)
        elif name == "nilpotency_class":
            lo, _, hi = value.partition(":")
            kw[name] = (documents.decode_int(lo, at), documents.decode_int(hi or lo, at))
        elif value in _TRUTHY:
            kw[name] = _TRUTHY[value]
        else:
            raise CommandError(f"assertion value must be true or false, got {item!r}")
    try:
        return PropertyFlags(**kw)
    except (TypeError, ValueError) as exc:
        raise CommandError(f"bad property assertion: {exc}")


def _cmd_seed(args) -> int:
    if args.kind == "smooth":
        if args.degree is None:
            raise CommandError("seed smooth requires --degree")
        curve = seed_smooth(args.degree)
    elif args.kind == "pencil":
        if args.lines is None:
            raise CommandError("seed pencil requires --lines")
        curve = seed_pencil(args.lines)
    elif args.kind == "generic-lines":
        if args.lines is None:
            raise CommandError("seed generic-lines requires --lines")
        curve = seed_generic_lines(args.lines)
    else:  # custom
        if not args.degrees or args.group is None:
            raise CommandError("seed custom requires --degrees and --group")
        degrees = _int_list(args.degrees, f"--degrees {args.degrees!r}")
        group = parse_descriptor(args.group)
        sings = multiset(parse_type(t) for t in args.singularity or [])
        curve = custom_seed(
            degrees,
            sings,
            group,
            asserted_props=_parse_assertions(args.assertion),
            family_tag=args.tag,
        )
    _write(documents.render_document(curve), args.out)
    return 0


def _cmd_apply(args) -> int:
    spec = parse_spec(args.spec)
    curve, _ = _read_document(args.input)
    report = audit_self_intersection(curve.degree, spec)
    if args.audit_only:
        _write(documents.render_json(documents.audit_to_json(report)), args.out)
        return 0
    result = apply_construction(curve, spec)
    reports = {"audit": documents.audit_to_json(report)}
    if args.meridians:
        reports["meridians"] = documents.meridians_to_json(replay(spec))
    _write(documents.render_document(result, reports), args.out)
    return 0


def _cmd_audit(args) -> int:
    spec = parse_spec(args.spec)
    report = audit_self_intersection(args.degree, spec)
    _write(documents.render_json(documents.audit_to_json(report)), args.out)
    return 0


def _cmd_meridians(args) -> int:
    spec = parse_spec(args.spec)
    state = replay(spec)
    if args.trace:
        _write("\n".join(trace_lines(state)) + "\n", args.out)
    else:
        _write(documents.render_json(documents.meridians_to_json(state)), args.out)
    return 0


def _cmd_zariski(args) -> int:
    left, _ = _read_document(args.left)
    right, _ = _read_document(args.right)
    pair = seed_pair(left, right)
    if args.enumerate is not None:
        records = enumerate_family(pair, args.enumerate)
        payload = [documents.pair_to_json(r) for r in records]
        _write(documents.render_json(payload), args.out)
        return 0
    if args.spec is None:
        raise CommandError("zariski requires either --spec or --enumerate")
    record = lift_pair(pair, parse_spec(args.spec))
    _write(documents.render_json(documents.pair_to_json(record)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvegroups",
        description="Plane-curve constructions with controlled fundamental groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seed = sub.add_parser("seed", help="emit a seed curve document")
    seed.add_argument("kind", choices=["smooth", "pencil", "generic-lines", "custom"])
    seed.add_argument("--degree", type=int, help="degree of a smooth seed")
    seed.add_argument("--lines", type=int, help="number of lines for line-arrangement seeds")
    seed.add_argument("--degrees", help="comma-separated component degrees (custom)")
    seed.add_argument("--singularity", action="append", help="singularity type, repeatable (custom)")
    seed.add_argument("--group", help="group descriptor, e.g. 'Z/6' (custom)")
    seed.add_argument("--assertion", action="append", help="asserted property, e.g. abelian=false (custom)")
    seed.add_argument("--tag", help="family tag (custom)")
    seed.add_argument("--out", help="output path (default stdout)")
    seed.set_defaults(func=_cmd_seed)

    apply_cmd = sub.add_parser("apply", help="apply a construction to a curve document")
    apply_cmd.add_argument("spec", help="construction, e.g. 'general(1,2)'")
    apply_cmd.add_argument("--in", dest="input", help="input document path (default stdin)")
    apply_cmd.add_argument("--audit-only", action="store_true", help="emit only the audit report")
    apply_cmd.add_argument("--meridians", action="store_true", help="append the meridian word table")
    apply_cmd.add_argument("--out", help="output path (default stdout)")
    apply_cmd.set_defaults(func=_cmd_apply)

    audit = sub.add_parser("audit", help="self-intersection audit for a degree and construction")
    audit.add_argument("spec", help="construction, e.g. 'special(1)'")
    audit.add_argument("--degree", type=int, required=True)
    audit.add_argument("--out", help="output path (default stdout)")
    audit.set_defaults(func=_cmd_audit)

    meridians = sub.add_parser("meridians", help="meridian words of a construction schedule")
    meridians.add_argument("spec", help="construction, e.g. 'general(2,1)'")
    meridians.add_argument("--trace", action="store_true", help="line-oriented schedule trace")
    meridians.add_argument("--out", help="output path (default stdout)")
    meridians.set_defaults(func=_cmd_meridians)

    zariski = sub.add_parser("zariski", help="lift a seed pair or enumerate its family")
    zariski.add_argument("--left", required=True, help="left curve document")
    zariski.add_argument("--right", required=True, help="right curve document")
    zariski.add_argument("--spec", help="single lift construction")
    zariski.add_argument("--enumerate", type=int, help="enumerate lifts up to this bound")
    zariski.add_argument("--out", help="output path (default stdout)")
    zariski.set_defaults(func=_cmd_zariski)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves them all
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CommandError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
