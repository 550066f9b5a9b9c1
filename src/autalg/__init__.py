"""Algebraic automata over finite carriers.

Two automaton models built on semigroup actions: final-output automata
(the output of a run is its last step's) and accumulating automata (the
outputs form a semigroup and multiply up along the run), together with
the constructions connecting them: the universal pair semigroup, exact
quotient decisions, cascade connections, wreath products and the
embedding of every cascade into them, serial connections, and the groups
generated by invertible word machines.

The names below are what the command-line verbs run, the paper's notions
that no verb calls (each docstring names its notion), and what
``scripts/make_fixtures.py`` builds from.  Naive enumerators live with
the tests as oracles.  Each name is imported from its module on first
use (PEP 562), so a verb loads only the modules it runs.
"""

import importlib

# module -> the names it exports
_EXPORTS = {
    "limits": ("CapExceeded", "VerificationError"),
    "core": (
        "CheckReport", "Closure", "FiniteSet", "FunMap", "NotInvertible", "PairElement",
        "SemigroupTable", "Transformation", "Word", "close_generators",
        "compose_transformations", "evaluate_word", "multiply_pair",
    ),
    "first_type": (
        "PureAutomatonFirst", "Run", "SemigroupAutomatonFirst", "act_word",
        "check_first_axioms", "semigroupify", "to_universal",
    ),
    "second_type": (
        "GeneratorHom", "PureAutomatonSecond", "QuotientWitness", "SemigroupAutomatonSecond",
        "check_second_axioms", "free_extension_out", "quotient_construct",
    ),
    "cascade": (
        "CascadeTriplePure", "CascadeTripleSemigroup", "WreathElement", "WreathProduct",
        "cascade_pure", "cascade_semigroup", "check_pure_triple", "check_semigroup_triple",
        "check_semigroup_triple_morphism", "check_triple_morphism", "embed_into_wreath",
        "wreath_automaton", "wreath_product", "wreath_triple",
    ),
    "serial": (
        "AutomatonMapping", "SerialConnection", "apply_mapping", "check_serial",
        "decode_mapping", "derive_second_type", "semiautomaton", "serial_action",
        "serial_from_second",
    ),
    "mealy": (
        "MealyElement", "MealyMachine", "OrderResult", "element_apply", "element_compose",
        "element_equal", "element_invert", "element_order_bounded", "first_difference",
        "grigorchuk_elements", "grigorchuk_machine", "identity_element", "is_invertible",
        "minimize_element", "odometer",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, imported from its module and kept here."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
