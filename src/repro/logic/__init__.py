"""Logic substrate: terms, a from-scratch LIA solver, and QE.

This package replaces the SMT backend (SMTInterpol / Z3) used by the
paper's implementation; see DESIGN.md §3 for the substitution rationale.
The semantic simplifier (:mod:`~repro.logic.simplify`) loads on first use
(``_LAZY``).
"""

from .._lazy import lazy_exports
from .arrays import UnsupportedArrayFormula, ackermannize, contains_arrays
from .terms import (
    Add,
    And,
    AVar,
    BoolConst,
    Eq,
    FALSE,
    Select,
    Store,
    avar,
    select,
    store,
    IntConst,
    Ite,
    Le,
    Mul,
    Not,
    ONE,
    Or,
    TRUE,
    Term,
    Var,
    ZERO,
    add,
    and_,
    boolc,
    eq,
    evaluate,
    free_vars,
    ge,
    gt,
    iff,
    implies,
    intc,
    ite,
    le,
    lt,
    mul,
    ne,
    not_,
    or_,
    rename,
    sub,
    substitute,
    var,
    KERNEL_COMPACT_THRESHOLD,
    compact_kernel,
    intern_table_size,
    kernel_counters,
    register_kernel_cache,
)
from .solver import Solver, SolverStats, SolverUnknown
from .qe import eliminate_exists, eliminate_forall

__all__ = [
    "Add", "And", "BoolConst", "Eq", "FALSE", "IntConst", "Ite", "Le",
    "Mul", "Not", "ONE", "Or", "TRUE", "Term", "Var", "ZERO",
    "add", "and_", "boolc", "eq", "evaluate", "free_vars",
    "ge", "gt", "iff", "implies", "intc", "ite", "le", "lt", "mul", "ne",
    "not_", "or_", "rename", "sub", "substitute", "var",
    "Solver", "SolverStats", "SolverUnknown",
    "eliminate_exists", "eliminate_forall",
    "AVar", "Select", "Store", "avar", "select", "store",
    "UnsupportedArrayFormula", "ackermannize", "contains_arrays",
    "KERNEL_COMPACT_THRESHOLD", "compact_kernel", "intern_table_size",
    "kernel_counters", "register_kernel_cache",
    # loaded on first use (see _LAZY)
    "drop_redundant_conjuncts", "drop_redundant_disjuncts", "simplify", "simplify_all",
]

_LAZY = {
    "drop_redundant_conjuncts": ".simplify",
    "drop_redundant_disjuncts": ".simplify",
    "simplify": ".simplify",
    "simplify_all": ".simplify",
}

lazy_exports(__name__)
