"""The paper's core: commutativity, preference orders, and reductions.

The verifier runs the layer stack (:mod:`~repro.core.layers`,
:mod:`~repro.core.persistent`); the standalone reduction automata and the
trace-theory checks load on first use (``_LAZY``).
"""

from .._lazy import lazy_exports
from .antichain import maximal_antichain, minimal_antichain
from .commutativity import (
    CommutativityRelation,
    CommutativityStats,
    ConditionalCommutativity,
    FullCommutativity,
    SemanticCommutativity,
    SyntacticCommutativity,
    composition_equal_condition,
)
from .layers import (
    MODES,
    ContextLayer,
    LayerStats,
    SleepLayer,
    build_reduction_layers,
)
from .persistent import PersistentSetProvider
from .preference import (
    LockstepOrder,
    PositionalOrder,
    PreferenceOrder,
    RandomOrder,
    ThreadUniformOrder,
    minimal_word,
    prefers,
)

__all__ = [
    "maximal_antichain",
    "minimal_antichain",
    "CommutativityRelation",
    "CommutativityStats",
    "ConditionalCommutativity",
    "FullCommutativity",
    "SemanticCommutativity",
    "SyntacticCommutativity",
    "composition_equal_condition",
    "MODES",
    "ContextLayer",
    "LayerStats",
    "SleepLayer",
    "build_reduction_layers",
    "PersistentSetProvider",
    "LockstepOrder",
    "PositionalOrder",
    "PreferenceOrder",
    "RandomOrder",
    "ThreadUniformOrder",
    "minimal_word",
    "prefers",
    # loaded on first use (see _LAZY)
    "enumerate_class",
    "equivalent",
    "foata_normal_form",
    "partition_into_classes",
    "is_membrane",
    "is_weakly_persistent",
    "ReducedProduct",
    "reduce_program",
    "DfaBase",
    "SleepSetAutomaton",
]

_LAZY = {
    "enumerate_class": ".mazurkiewicz",
    "equivalent": ".mazurkiewicz",
    "foata_normal_form": ".mazurkiewicz",
    "partition_into_classes": ".mazurkiewicz",
    "is_membrane": ".membrane",
    "is_weakly_persistent": ".membrane",
    "ReducedProduct": ".reduction",
    "reduce_program": ".reduction",
    "DfaBase": ".sleepset",
    "SleepSetAutomaton": ".sleepset",
}

lazy_exports(__name__)
