"""Hirzebruch-surface replay of a construction schedule at the meridian level.

The state tracks the surface index, the meridian word of the exceptional
section, and a meridian word per auxiliary fiber.  An index-raising
elementary transformation left-multiplies the chosen fiber's meridian by
the exceptional section's meridian and leaves every other word alone; an
index-lowering transformation changes no words at all.  Replaying a full
schedule therefore derives the closed-form relator words that feed the
group-theoretic side of the construction engine.

Fiber labels follow the construction layouts: ``P``/``P1..Pl`` for the
lowering fibers (meridian generators ``b``, ``b1..bl``), ``Q1..Qk`` for the
raising fibers (generators ``a1..ak``), and ``L`` (generator ``a``) for the
single-fiber schedule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .constructions import ConstructionSpec
from .fpgroup import Word, free_reduce, generator

_LABEL_GENERATORS = (
    (re.compile(r"^P$"), lambda m: "b"),
    (re.compile(r"^P(\d+)$"), lambda m: f"b{m.group(1)}"),
    (re.compile(r"^Q(\d+)$"), lambda m: f"a{m.group(1)}"),
    (re.compile(r"^L$"), lambda m: "a"),
)


def generator_for_label(label: str) -> str:
    for pattern, name in _LABEL_GENERATORS:
        m = pattern.match(label)
        if m:
            return name(m)
    return label


@dataclass(frozen=True)
class MeridianState:
    index: int
    exceptional: Word
    fibers: tuple[tuple[str, Word], ...]
    trace: tuple[str, ...] = ()

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"Hirzebruch index must be >= 1, got {self.index}")

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.fibers)

    def word(self, label: str) -> Word:
        for fiber, word in self.fibers:
            if fiber == label:
                return word
        raise KeyError(f"unknown fiber {label!r}; known fibers: {list(self.labels())}")

    def words(self) -> dict[str, Word]:
        return dict(self.fibers)


def init_state(line_labels) -> MeridianState:
    """Blow up the common point of the labelled lines: index 1, each fiber
    keeps its own meridian generator, and the exceptional section's meridian
    is the product of all of them in the given counterclockwise order."""
    labels = tuple(line_labels)
    if not labels:
        raise ValueError("at least one line label is required")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate fiber labels in {labels}")
    fibers = tuple((label, generator(generator_for_label(label))) for label in labels)
    exceptional = Word(tuple((generator_for_label(label), 1) for label in labels))
    trace = (f"F1 init {' '.join(labels)}",)
    return MeridianState(1, exceptional, fibers, trace)


def elem_first(state: MeridianState, fiber: str) -> MeridianState:
    """Index-raising step on ``fiber``: its meridian becomes
    (exceptional meridian) * (old meridian); all other words unchanged."""
    old = state.word(fiber)
    new_word = free_reduce(state.exceptional * old)
    fibers = tuple(
        (label, new_word if label == fiber else word) for label, word in state.fibers
    )
    index = state.index + 1
    return MeridianState(
        index, state.exceptional, fibers, state.trace + (f"F{index} type1 {fiber}",)
    )


def elem_second(state: MeridianState, fiber: str) -> MeridianState:
    """Index-lowering step on ``fiber``: no meridian changes."""
    state.word(fiber)
    if state.index < 2:
        raise ValueError("cannot lower the Hirzebruch index below 1")
    index = state.index - 1
    return MeridianState(
        index, state.exceptional, state.fibers, state.trace + (f"F{index} type2 {fiber}",)
    )


def _schedule(spec: ConstructionSpec) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Fiber labels and the (step type, fiber) sequence for a spec."""
    if spec.form == "special":
        raising = lowering = labels = ("L",)
    else:
        raising = tuple(f"Q{i}" for i in range(1, len(spec.raise_counts) + 1))
        if spec.form == "mixed":
            lowering = tuple(f"P{j}" for j in range(1, len(spec.lower_counts) + 1))
        else:
            lowering = ("P",)
        labels = lowering + raising
    steps = [("type1", q) for q, n in zip(raising, spec.raise_counts) for _ in range(n)]
    steps += [("type2", p) for p, m in zip(lowering, spec.lower_counts) for _ in range(m)]
    return labels, tuple(steps)


def replay(spec: ConstructionSpec) -> MeridianState:
    """Replay a spec's full schedule and return the final state.

    The final index is checked to be 1 (back on the surface that blows down
    to the plane); an index-bound violation is reported with its step
    number.
    """
    labels, steps = _schedule(spec)
    state = init_state(labels)
    for number, (kind, fiber) in enumerate(steps, 1):
        try:
            state = elem_first(state, fiber) if kind == "type1" else elem_second(state, fiber)
        except ValueError as exc:
            raise ValueError(f"schedule step {number} ({kind} on {fiber}): {exc}") from exc
    if state.index != 1:
        raise ValueError(f"schedule ended on index {state.index}, expected 1")
    return state


def run_schedule(spec: ConstructionSpec) -> dict[str, Word]:
    """Final meridian word of every fiber after the construction's schedule."""
    return replay(spec).words()


def max_index(state: MeridianState) -> int:
    """Largest Hirzebruch index reached along a replayed trace."""
    return max(int(m.group(1)) for line in state.trace for m in [re.match(r"^F(\d+) ", line)] if m)


def trace_lines(state: MeridianState) -> list[str]:
    """Line-oriented schedule log plus the final meridian word table."""
    lines = list(state.trace)
    lines.append(f"E = {state.exceptional}")
    for label, word in state.fibers:
        lines.append(f"{label} = {word}")
    return lines
