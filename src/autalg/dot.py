"""Graphviz export: states as nodes, one labelled edge per (state, input)
with the output annotated after a slash."""

from __future__ import annotations

from functools import partial

from .core import PureAutomaton
from .first_type import SemigroupAutomatonFirst
from .mealy import MealyElement, MealyMachine
from .second_type import SemigroupAutomatonSecond


def _quote(s: str) -> str:
    return '"' + s.replace('"', r'\"') + '"'


def _element_label(table, g: int) -> str:
    if table.names is not None:
        return "".join(f"g{letter}" for letter in table.names[g])
    return f"e{g}"


def to_dot(obj) -> str:
    """Render any automaton or machine as a DOT digraph."""
    initial = None
    if isinstance(obj, MealyElement):
        obj, initial = obj.machine, obj.initial
    if isinstance(obj, MealyMachine):
        nodes = [f"shape={'doublecircle' if q == initial else 'circle'}"
                 for q in range(obj.states)]
        column = output = str
    elif isinstance(obj, (PureAutomaton, SemigroupAutomatonFirst, SemigroupAutomatonSecond)):
        nodes = [f"label={_quote(obj.states.label(a))}" for a in range(obj.states.size)]
        column = (obj.inputs.label if isinstance(obj, PureAutomaton)
                  else partial(_element_label, obj.gamma))
        output = (partial(_element_label, obj.sigma) if isinstance(obj, SemigroupAutomatonSecond)
                  else obj.outputs.label)
    else:
        raise ValueError(f"no DOT renderer for {type(obj).__name__}")
    lines = ["digraph {", "  rankdir=LR;"]
    lines += [f"  {a} [{attributes}];" for a, attributes in enumerate(nodes)]
    for a, (row, outs) in enumerate(zip(obj.next, obj.out)):
        for x, (b, y) in enumerate(zip(row, outs)):
            lines.append(f"  {a} -> {b} [label={_quote(f'{column(x)}/{output(y)}')}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
