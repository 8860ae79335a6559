"""The paper's core: commutativity, preference orders, and reductions."""

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
from .mazurkiewicz import (
    enumerate_class,
    equivalent,
    foata_normal_form,
    partition_into_classes,
)
from .layers import (
    ContextLayer,
    LayerStats,
    SleepLayer,
    build_reduction_layers,
)
from .membrane import is_membrane, is_weakly_persistent
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
from .reduction import MODES, ReducedProduct, reduce_program
from .sleepset import DfaBase, SleepSetAutomaton

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
    "enumerate_class",
    "equivalent",
    "foata_normal_form",
    "partition_into_classes",
    "ContextLayer",
    "LayerStats",
    "SleepLayer",
    "build_reduction_layers",
    "is_membrane",
    "is_weakly_persistent",
    "PersistentSetProvider",
    "LockstepOrder",
    "PositionalOrder",
    "PreferenceOrder",
    "RandomOrder",
    "ThreadUniformOrder",
    "minimal_word",
    "prefers",
    "MODES",
    "ReducedProduct",
    "reduce_program",
    "DfaBase",
    "SleepSetAutomaton",
]
