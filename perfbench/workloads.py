"""The four benchmark workloads: seeded inputs, the timed op, and its check.

A workload builds its inputs in rounds.  Round ``r`` of seed ``s`` is drawn
from ``random.Random(f"{s}:{name}:{r}")``, so the same seed always gives the
same inputs.  Every round has the same shape (the same op kinds and size
ladder); the seed only draws contents and jitter inside that shape, which
keeps run-to-run figures comparable across seeds.

Each op is one call into the library: ``curvegroups.cli.main(argv)`` for
``chain``, ``wide`` and ``family``, one ``abelianization``,
``smith_normal_form`` or ``cyclic_quotient_order`` call for ``abelianize``.
Ops look the entry point up on its module at call time, so the tracer's
wrappers are seen.  The check runs after the op, outside the timed region,
and returns ``None`` or a message saying what was wrong.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from math import comb
from pathlib import Path
from typing import Any, Callable

import oracles


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _spec(rng: random.Random, kind: str, total: int, parts: int):
    """(kind, raise_counts, lower_counts) with the given raise total, split
    into about ``parts`` roughly equal counts."""
    if kind in ("uludag", "special"):
        return kind, (total,), ()
    raise_counts = _split(rng, total, parts)
    if kind == "general":
        return kind, raise_counts, ()
    return kind, raise_counts, _split(rng, total, 1 + parts % 3)


def _split(rng: random.Random, total: int, parts: int) -> tuple[int, ...]:
    parts = min(parts, total)
    weights = [rng.uniform(0.8, 1.2) for _ in range(parts)]
    scale = (total - parts) / sum(weights)
    counts = [1 + int(w * scale) for w in weights]
    counts[-1] += total - sum(counts)
    return tuple(counts)


def _small_spec(rng: random.Random, kind: str, parts: int):
    """A spec with ``parts`` raising counts, each between 1 and 4."""
    if kind in ("uludag", "special"):
        return kind, (rng.randint(1, 4),), ()
    counts = tuple(rng.randint(1, 4) for _ in range(parts))
    if kind == "general":
        return kind, counts, ()
    return kind, counts, _split(rng, sum(counts), 1 + parts % 3)


KINDS = ("general", "mixed", "uludag", "special")
SMALL_TYPES = ("[2]", "[3]", "[2,2]", "[2_3]", "[3,2]")


class Workload:
    name = ""
    deadline_s = 0.0
    tail_percentile = 0.0
    cycle_rounds = 1  # rounds in one full cycle of the input shape

    def __init__(self, lib, workdir: Path, seed: int):
        self.lib = lib
        self.workdir = workdir
        self.seed = seed
        # set by the runner in traced mode: called with each output curve
        self.observe_curve: Callable[[dict], None] | None = None

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{r}")

    def build_round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def late_errors(self) -> list[tuple[str, str]]:
        """Checks made once after measuring, as (input, message) pairs."""
        return []

    def cli(self, argv: list[str]) -> Callable[[], int]:
        lib = self.lib
        return lambda: lib.cli.main(argv)

    def _observe(self, curve: dict):
        if self.observe_curve is not None:
            self.observe_curve(curve)

    def _seed_doc(self, path: Path, kind: str, value: int) -> int:
        """Write a seed document through the CLI; return its type count."""
        argv = ["seed", kind, "--degree" if kind == "smooth" else "--lines", str(value), "--out", str(path)]
        if self.lib.cli.main(argv) != 0:
            raise RuntimeError(f"could not build seed input {argv}")
        return {"smooth": 0, "pencil": 1, "generic-lines": comb(value, 2)}[kind]


def _apply_doc_errors(doc: dict, degree: int, types: int, kind: str, counts, d_before: int) -> str | None:
    curve = doc["curve"]
    if int(curve["degree"]) != degree:
        return f"degree {curve['degree']} != {degree}"
    if len(curve["singularities"]) != types:
        return f"{len(curve['singularities'])} singularity types != {types}"
    residual = int(doc["reports"]["audit"]["residual"])
    expected = oracles.audit_residual(kind, counts, d_before)
    if residual != expected:
        return f"audit residual {residual} != {expected}"
    return None


# ---------------------------------------------------------------------------


class Chain(Workload):
    """Pipelines of ``seed`` then 60 ``apply`` steps (and an occasional
    ``audit``), each step reading the previous document from a file."""

    name = "chain"
    deadline_s = 5.0
    tail_percentile = 99.0
    steps = 60
    seed_kinds = ("smooth", "pencil", "generic-lines", "custom-cyclic", "custom-fin")

    def build_round(self, r: int) -> list[Op]:
        """The pipelines' steps interleave, so each pipeline's ops spread
        over the round's whole running time."""
        rng = self.rng(r)
        pipelines = [self._pipeline(rng, f"r{r}p{p}", kind) for p, kind in enumerate(self.seed_kinds)]
        return [op for step in zip_longest(*pipelines) for op in step if op is not None]

    def _seed_argv(self, rng: random.Random, seed_kind: str):
        """argv, seed degree, seed type count, whether the group stays cyclic."""
        if seed_kind == "smooth":
            d = rng.randint(1, 6)
            return ["seed", "smooth", "--degree", str(d)], d, 0, True
        if seed_kind in ("pencil", "generic-lines"):
            m = rng.randint(2, 5) if seed_kind == "pencil" else rng.randint(3, 5)
            types = 1 if seed_kind == "pencil" else comb(m, 2)
            return ["seed", seed_kind, "--lines", str(m)], m, types, False
        d = rng.randint(3, 8)
        sings = [rng.choice(SMALL_TYPES) for _ in range(rng.randint(0, 5))]
        if seed_kind == "custom-cyclic":
            group = f"Z/{d}"
        else:
            group = f"Fin({oracles.prime_near(rng, 5_000_000_000, 5_200_000_000)})"
        argv = ["seed", "custom", "--degrees", str(d), "--group", group]
        for s in sings:
            argv += ["--singularity", s]
        return argv, d, len(sings), seed_kind == "custom-cyclic"

    def _pipeline(self, rng: random.Random, tag: str, seed_kind: str) -> list[Op]:
        files = [self.workdir / f"{tag}a.json", self.workdir / f"{tag}b.json"]
        argv, degree, types, cyclic = self._seed_argv(rng, seed_kind)
        argv += ["--out", str(files[0])]
        ops = [Op(f"{tag} {seed_kind} seed", self.cli(argv), self._seed_check(files[0], degree, types))]
        offset = self.seed_kinds.index(seed_kind)
        for step in range(1, self.steps + 1):
            # kinds and part counts rotate, so documents grow alike on every seed
            kind = KINDS[(step + offset) % 4]
            spec = _small_spec(rng, kind, 1 + (step // 4 + offset) % 3)
            text = oracles.spec_text(*spec)
            src, dst = files[(step - 1) % 2], files[step % 2]
            new_degree = degree * oracles.kernel_order(spec[1])
            new_types = types + oracles.added_type_count(kind, spec[1])
            ops.append(
                Op(
                    f"{tag} {seed_kind} step {step} apply {text}",
                    self.cli(["apply", text, "--in", str(src), "--out", str(dst)]),
                    self._apply_check(dst, spec, degree, new_degree, new_types, cyclic, step % 4 == 0 or step == self.steps),
                )
            )
            degree, types = new_degree, new_types
            if (step + offset) % 10 == 0:
                audit_spec = _small_spec(rng, KINDS[step // 10 % 4], 2)
                out = self.workdir / f"{tag}audit.json"
                audit_text = oracles.spec_text(*audit_spec)
                ops.append(
                    Op(
                        f"{tag} {seed_kind} step {step} audit {audit_text}",
                        self.cli(["audit", audit_text, "--degree", str(degree), "--out", str(out)]),
                        self._audit_check(out, audit_spec, degree),
                    )
                )
        return ops

    def _seed_check(self, path: Path, degree: int, types: int):
        def check(rc):
            if rc != 0:
                return f"exit status {rc}"
            curve = json.loads(path.read_text())["curve"]
            if int(curve["degree"]) != degree or len(curve["singularities"]) != types:
                return f"seed document has degree {curve['degree']}, {len(curve['singularities'])} types"
            return None

        return check

    def _apply_check(self, path: Path, spec, d_before: int, degree: int, types: int, cyclic: bool, round_trip: bool):
        kind, counts, _ = spec

        def check(rc):
            if rc != 0:
                return f"exit status {rc}"
            text = path.read_text()
            doc = json.loads(text)
            error = _apply_doc_errors(doc, degree, types, kind, counts, d_before)
            if error:
                return error
            group = doc["curve"]["group"]["tree"]
            if cyclic and (group["kind"] != "cyclic" or int(group["order"]) != degree):
                return f"group {doc['curve']['group']['form']} is not Z/{degree}"
            if round_trip:
                docs = self.lib.documents
                if docs.render_document(*docs.parse_document(text)) != text:
                    return "document does not round-trip through parse_document/render_document"
            self._observe(doc["curve"])
            return None

        return check

    def _audit_check(self, path: Path, spec, degree: int):
        def check(rc):
            if rc != 0:
                return f"exit status {rc}"
            report = json.loads(path.read_text())
            expected = oracles.audit_residual(spec[0], spec[1], degree)
            if int(report["residual"]) != expected or (report["verdict"] == "pass") != (expected == 0):
                return f"audit report {report} does not have residual {expected}"
            return None

        return check


# ---------------------------------------------------------------------------


class Wide(Workload):
    """Few singularity types with very long runs, and long meridian
    schedules, on small seeds."""

    name = "wide"
    deadline_s = 20.0
    tail_percentile = 97.0
    apply_totals = (1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 100_000)
    schedule_lengths = (100, 140, 200, 280, 400, 560, 800, 1_000)
    apply_meridian_lengths = (150, 600)
    seeds = (("smooth", 1), ("pencil", 2), ("smooth", 2), ("generic-lines", 3), ("smooth", 3), ("pencil", 3))

    def build_round(self, r: int) -> list[Op]:
        """Sizes come from fixed ladders; the schedule kind, part count and
        seed document rotate with the round, so every run sees the same mix."""
        rng = self.rng(r)
        seed_path = self.workdir / f"wide-seed-{r % 2}.json"
        seed_kind, value = self.seeds[r % len(self.seeds)]
        seed_types = self._seed_doc(seed_path, seed_kind, value)

        def spec(i, size):
            return _spec(rng, KINDS[(r + i) % 4], size, 1 + (r + i // 4) % 4)

        ops = []
        for i, total in enumerate(self.apply_totals):
            ops.append(self._apply(f"r{r} apply{i}", seed_path, value, seed_types, spec(i, _jitter(rng, total)), meridians=False))
        for i, length in enumerate(self.schedule_lengths):
            sp = spec(i, _jitter(rng, length) // 2)
            out = self.workdir / "wide-trace.txt"
            text = oracles.spec_text(*sp)
            ops.append(Op(f"r{r} meridians{i} {text}", self.cli(["meridians", text, "--trace", "--out", str(out)]), self._trace_check(out, sp)))
        for i, length in enumerate(self.apply_meridian_lengths):
            sp = spec(i + 1, _jitter(rng, length) // 2)
            ops.append(self._apply(f"r{r} apply-meridians{i}", seed_path, value, seed_types, sp, meridians=True))
        rng.shuffle(ops)
        return ops

    def _apply(self, tag: str, seed_path: Path, value: int, seed_types: int, spec, meridians: bool) -> Op:
        kind, counts, lowers = spec
        text = oracles.spec_text(*spec)
        out = self.workdir / "wide-apply.json"
        argv = ["apply", text, "--in", str(seed_path), "--out", str(out)] + (["--meridians"] if meridians else [])
        d = value  # every wide seed has total degree equal to its parameter
        degree = d * oracles.kernel_order(counts)
        types = seed_types + oracles.added_type_count(kind, counts)

        def check(rc):
            if rc != 0:
                return f"exit status {rc}"
            doc = json.loads(out.read_text())
            error = _apply_doc_errors(doc, degree, types, kind, counts, d)
            if error:
                return error
            missing = Counter(_expected_runs(d, spec)) - Counter(doc["curve"]["singularities"])
            if missing:
                return f"stored runs do not match the counts: missing {sorted(missing)}"
            if meridians:
                table = doc["reports"]["meridians"]
                error = _meridian_errors(spec, table["exceptional"], table["fibers"], table["trace"])
                if error:
                    return error
            self._observe(doc["curve"])
            return None

        return Op(f"{tag} {text}", self.cli(argv), check)

    def _trace_check(self, path: Path, spec):
        def check(rc):
            if rc != 0:
                return f"exit status {rc}"
            lines = path.read_text().splitlines()
            split = next(i for i, line in enumerate(lines) if line.startswith("E = "))
            fibers = dict(line.split(" = ", 1) for line in lines[split + 1 :])
            return _meridian_errors(spec, lines[split][4:], fibers, lines[:split])

        return check


def _jitter(rng: random.Random, size: int) -> int:
    return max(2, round(size * rng.uniform(0.9, 1.1)))


def _expected_runs(d: int, spec) -> list[str]:
    """Printed singularity types whose run lengths are the spec's counts."""
    kind, counts, lowers = spec
    if kind == "special":
        return [f"[{2 * counts[0] * d},{oracles.run_text(d, 2 * counts[0])}]"]
    runs = [f"[{oracles.run_text(d, n)}]" for n in counts]
    total = sum(counts)
    if len(lowers) <= 1 and d * total >= 2:
        runs.append(f"[{d * total},{oracles.run_text(d, total)}]")
    return runs


def _meridian_errors(spec, exceptional: str, fibers: dict, trace: list[str]) -> str | None:
    want_e, want_fibers = oracles.closed_form_fibers(*spec)
    if exceptional != want_e:
        return f"exceptional meridian {exceptional!r} != {want_e!r}"
    if fibers != want_fibers:
        bad = sorted(k for k in set(fibers) | set(want_fibers) if fibers.get(k) != want_fibers.get(k))
        return f"fiber words differ from the closed form on {bad}"
    steps = 2 * sum(spec[1])
    if len(trace) != steps + 1 or not trace[-1].startswith("F1 "):
        return f"trace has {len(trace) - 1} steps (want {steps}) ending {trace[-1]!r}, not on index 1"
    return None


# ---------------------------------------------------------------------------


class Family(Workload):
    """``zariski --enumerate B`` over seeded seed pairs."""

    name = "family"
    deadline_s = 30.0
    tail_percentile = 80.0
    # B = 10 holds 3/7 of the ops and B = 11 holds 2/7, so the median and the
    # tail percentile each fall inside one bound's ops, not between two
    bounds = (10, 11, 8, 10, 9, 11, 10)

    def build_round(self, r: int) -> list[Op]:
        """The bounds are fixed, and the pair's degree and singularity count
        follow the bound, so ops with one bound cost alike; the seed draws
        the singularity types, and the right-hand group alternates."""
        rng = self.rng(r)
        ops = []
        for i, bound in enumerate(self.bounds):
            tag = f"r{r}e{i}"
            left, right = self.workdir / f"{tag}-left.json", self.workdir / f"{tag}-right.json"
            degree = bound - 5
            self._write_pair(rng, left, right, degree, bound % 4 + 1, (r + i) % 2)
            out = self.workdir / "family-out.json"
            argv = ["zariski", "--left", str(left), "--right", str(right), "--enumerate", str(bound), "--out", str(out)]
            ops.append(Op(f"{tag} degree {degree} enumerate {bound}", self.cli(argv), self._check(out, degree, bound)))
        return ops

    def _write_pair(self, rng: random.Random, left: Path, right: Path, d: int, singularities: int, fin: int):
        base = ["seed", "custom", "--degrees", str(d)]
        for _ in range(singularities):
            base += ["--singularity", rng.choice(SMALL_TYPES)]
        if fin:
            right_group = [f"Fin({2 * d})", "--assertion", "abelian=false"]
        else:
            right_group = [f"Z/2 (+) Z/{2 * d}"]
        for argv in (base + ["--group", f"Z/{d}", "--out", str(left)], base + ["--group"] + right_group + ["--out", str(right)]):
            if self.lib.cli.main(argv) != 0:
                raise RuntimeError(f"could not build seed pair input {argv}")

    def _check(self, path: Path, d: int, bound: int):
        def check(rc):
            if rc != 0:
                return f"exit status {rc}"
            records = json.loads(path.read_text())
            want = oracles.partitions_up_to(bound)
            if len(records) != want:
                return f"{len(records)} records, want {want} (partitions of 1..{bound})"
            seen = set()
            for rec in records:
                left, right = rec["left"], rec["right"]
                counts = tuple(sorted(int(t) for t in rec["parent_spec"][len("general(") : -1].split(",")))
                seen.add(counts)
                if not rec["combinatorics_equal"] or rec["distinguisher"] != "cyclic-vs-noncyclic":
                    return f"record {rec['parent_spec']} is not a distinguished pair"
                if left["group"]["tree"]["kind"] != "cyclic":
                    return f"record {rec['parent_spec']} has non-cyclic left group {left['group']['form']}"
                degree = d * oracles.kernel_order(counts)
                if int(left["degree"]) != degree or int(right["degree"]) != degree:
                    return f"record {rec['parent_spec']} degrees {left['degree']}, {right['degree']} != {degree}"
                if left["singularities"] != right["singularities"]:
                    return f"record {rec['parent_spec']} has unequal singularities"
                if sum(counts) > bound:
                    return f"record {rec['parent_spec']} exceeds the bound {bound}"
                self._observe(left)
                self._observe(right)
            if len(seen) != len(records):
                return "two records share one partition"
            return None

        return check


# ---------------------------------------------------------------------------


class Abelianize(Workload):
    """Abelianization of random presentations, SNF of dense random
    matrices, and cyclic quotient orders of many fibers."""

    name = "abelianize"
    deadline_s = 5.0
    tail_percentile = 99.9
    generators = (3, 4, 5, 6, 7)
    dense_dims = (2, 3, 4, 5, 2, 3, 4, 5)
    fiber_ladder = (2, 3, 5, 8, 12, 20, 32, 50, 80)
    cycle_rounds = len(fiber_ladder)
    sympy_every = 64

    def __init__(self, lib, workdir: Path, seed: int):
        super().__init__(lib, workdir, seed)
        self.sympy_sample: list[tuple[str, list[list[int]], tuple[int, ...]]] = []
        self._dense_seen = 0

    def build_round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        fp = self.lib.fpgroup
        ops = []
        for g in self.generators:
            gens = [f"x{i}" for i in range(1, g + 1)]
            relators = []
            for _ in range(rng.randint(1, g + 1)):
                relators.append([(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(4, 12))])
            pres = fp.Presentation(tuple(gens), tuple(fp.Word(tuple(w)) for w in relators))
            matrix = [[sum(s for x, s in w if x == gen) for gen in gens] for w in relators]
            ops.append(Op(f"r{r} abelianization g={g} r={len(relators)}", lambda p=pres: fp.abelianization(p), self._pres_check(matrix)))
        for i, n in enumerate(self.dense_dims):
            matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            ops.append(Op(f"r{r} snf{i} {n}x{n} {matrix}", lambda m=matrix: fp.smith_normal_form(m), self._snf_check(matrix)))
        k = self.fiber_ladder[r % len(self.fiber_ladder)]
        counts = tuple(rng.randint(1, 9) for _ in range(k))
        ops.append(Op(f"r{r} cyclic_quotient_order k={k} {counts}", lambda c=counts: fp.cyclic_quotient_order(c), self._cqo_check(counts)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _pres_check(matrix):
        def check(inv):
            g = len(matrix[0])
            rank = oracles.rank(matrix)
            if inv.free_rank != g - rank:
                return f"free rank {inv.free_rank} != {g} - rank {rank}"
            if len(matrix) == g and rank == g:
                product = 1
                for d in inv.torsion:
                    product *= d
                det = abs(oracles.bareiss_determinant(matrix))
                if product != det:
                    return f"torsion product {product} != |det| {det}"
            return None

        return check

    def _snf_check(self, matrix):
        def check(factors):
            self._dense_seen += 1
            if self._dense_seen % self.sympy_every == 1:
                self.sympy_sample.append((str(matrix), matrix, factors))
            return oracles.check_invariant_factors(matrix, factors)

        return check

    @staticmethod
    def _cqo_check(counts):
        def check(order):
            want = sum(counts) + 1
            return None if order == want else f"order {order} != sum + 1 = {want}"

        return check

    def late_errors(self) -> list[tuple[str, str]]:
        """Compare the SNF subsample with sympy when sympy imports.  This
        runs after peak memory is read, so sympy's import does not count."""
        try:
            from sympy import Matrix, ZZ
            from sympy.matrices.normalforms import smith_normal_form
        except ImportError:
            return []
        errors = []
        for label, matrix, factors in self.sympy_sample:
            snf = smith_normal_form(Matrix(matrix), domain=ZZ)
            diagonal = sorted(abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i] != 0)
            if tuple(diagonal) != tuple(sorted(factors)):
                errors.append((label, f"sympy gives {diagonal}, library gives {factors}"))
        return errors


WORKLOADS = {w.name: w for w in (Chain, Wide, Family, Abelianize)}
