"""Hirzebruch-surface replay of a construction schedule at the meridian level.

The state tracks the surface index, the meridian word of the exceptional
section, and a meridian word per auxiliary fiber.  An index-raising
elementary transformation left-multiplies the chosen fiber's meridian by
the exceptional section's meridian and leaves every other word alone; an
index-lowering transformation changes no words at all.  A full schedule
therefore ends in closed form: a fiber raised n times carries
``E^n`` times its own generator, where E is the exceptional meridian
(``(b a1..ak)^{n_i} a_i`` for the general layout), and every other fiber
keeps its generator.  :func:`replay` builds that final state directly, so
its cost does not grow with the counts beyond the size of the words and
the trace, one ``(index, kind, fiber)`` record per step (``kind`` is
``init``, ``type1`` or ``type2``; text only at the edge, in :func:`trace_lines`
and ``documents.meridians_to_json``).  :func:`elem_first` and
:func:`elem_second` remain as the single steps it summarises.  The words are
the relators that feed the group-theoretic side of the construction engine.

Fiber labels follow the construction layouts: ``P``/``P1..Pl`` for the
lowering fibers (meridian generators ``b``, ``b1..bl``), ``Q1..Qk`` for the
raising fibers (generators ``a1..ak``), and ``L`` (generator ``a``) for the
single-fiber schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .constructions import Schedule
from .fpgroup import Word, _of_runs, _require_ints, free_reduce, generator

def generator_for_label(label: str) -> str:
    """``P``, ``Pn``, ``Qn``, ``L`` -> ``b``, ``bn``, ``an``, ``a`` (n any decimal
    digits); any other label is its own generator."""
    head, index = label[:1], label[1:]
    if label in ("P", "L") or head in ("P", "Q") and index.isdecimal():
        return ("b" if head == "P" else "a") + index
    return label


@dataclass(frozen=True)
class MeridianState:
    """Surface index, exceptional meridian and fiber words after some steps.
    ``trace`` holds one ``(index, kind, fiber)`` record per step, with ``kind``
    ``"init"`` (``(1, "init", "<labels joined by spaces>")``), ``"type1"`` or
    ``"type2"`` and the index the step reaches.  Only :func:`trace_lines` and
    ``documents.meridians_to_json`` render it as text."""

    index: int
    exceptional: Word
    fibers: tuple[tuple[str, Word], ...]
    trace: tuple[tuple[int, str, str], ...] = ()

    def __post_init__(self):
        _require_ints("Hirzebruch indices", (self.index,), 1)

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
    return MeridianState(1, exceptional, fibers, ((1, "init", " ".join(labels)),))


def elem_first(state: MeridianState, fiber: str) -> MeridianState:
    """Index-raising step on ``fiber``: its meridian becomes
    (exceptional meridian) * (old meridian); all other words unchanged."""
    old = state.word(fiber)
    new_word = free_reduce(state.exceptional * old)
    fibers = tuple(
        (label, new_word if label == fiber else word) for label, word in state.fibers
    )
    index = state.index + 1
    return MeridianState(index, state.exceptional, fibers, state.trace + ((index, "type1", fiber),))


def elem_second(state: MeridianState, fiber: str) -> MeridianState:
    """Index-lowering step on ``fiber``: no meridian changes."""
    state.word(fiber)
    if state.index < 2:
        raise ValueError("cannot lower the Hirzebruch index below 1")
    index = state.index - 1
    return MeridianState(index, state.exceptional, state.fibers, state.trace + ((index, "type2", fiber),))


def _schedule(spec: Schedule):
    """Fiber labels, and the (fiber, count) pairs of the raising and of the
    lowering phase: every raising step comes before every lowering step."""
    if spec.form == "special":
        raising = lowering = labels = ("L",)
    else:
        raising = tuple(f"Q{i}" for i in range(1, len(spec.raise_counts) + 1))
        if spec.form == "mixed":
            lowering = tuple(f"P{j}" for j in range(1, len(spec.lower_counts) + 1))
        else:
            lowering = ("P",)
        labels = lowering + raising
    return labels, tuple(zip(raising, spec.raise_counts)), tuple(zip(lowering, spec.lower_counts))


def replay(spec: Schedule) -> MeridianState:
    """The final state of a spec's full schedule, in closed form.

    Raising a fiber n times left-multiplies its meridian by the exceptional
    meridian E each time, so it ends as ``E^n`` times its generator; the
    lowering steps change no words and bring the index back to 1.  Only the
    trace is written step by step.  The result equals the step-by-step
    composition of :func:`elem_first` and :func:`elem_second`.
    """
    labels, raising, lowering = _schedule(spec)
    start = init_state(labels)
    counts = dict(raising)
    fibers = tuple(
        (label, _of_runs(start.exceptional.runs * counts[label] + word.runs) if label in counts else word)
        for label, word in start.fibers
    )
    trace = list(start.trace)
    index = 1
    for fiber, n in raising:
        trace += zip(range(index + 1, index + n + 1), repeat("type1"), repeat(fiber))
        index += n
    for fiber, m in lowering:
        trace += zip(range(index - 1, index - m - 1, -1), repeat("type2"), repeat(fiber))
        index -= m
    return MeridianState(index, start.exceptional, fibers, tuple(trace))


def max_index(state: MeridianState) -> int:
    """Largest Hirzebruch index reached along a replayed trace."""
    return max(index for index, _, _ in state.trace)


def _format_trace(trace) -> list[str]:
    """The text form of trace records, one ``F<index> <kind> <fiber>`` line each."""
    return [f"F{index} {kind} {fiber}" for index, kind, fiber in trace]


def trace_lines(state: MeridianState) -> list[str]:
    """Line-oriented schedule log plus the final meridian word table."""
    table = [("E", state.exceptional), *state.fibers]
    return _format_trace(state.trace) + [f"{label} = {word}" for label, word in table]
