"""The mini concurrent language: AST, parser, CFGs, and program model.

The concrete interpreter (:mod:`~repro.lang.interp`) loads on first use
(``_LAZY``).
"""

from .._lazy import lazy_exports
from . import ast
from .cfg import CompileError, ThreadCFG, compile_thread
from .parser import ParseError, parse, parse_program
from .program import ConcurrentProgram, ProductState, ProductView, instantiate
from .statements import Statement, SymbolicAction, assign, assume, havoc, skip

__all__ = [
    "ast",
    "CompileError",
    "ThreadCFG",
    "compile_thread",
    "ParseError",
    "parse",
    "parse_program",
    "ConcurrentProgram",
    "ProductState",
    "ProductView",
    "instantiate",
    "Statement",
    "SymbolicAction",
    "assign",
    "assume",
    "havoc",
    "skip",
    # loaded on first use (see _LAZY)
    "ExplorationResult",
    "explore_concrete",
    "replay",
]

_LAZY = {
    "ExplorationResult": ".interp",
    "explore_concrete": ".interp",
    "replay": ".interp",
}

lazy_exports(__name__)
