"""Term language: quantifier-free linear integer arithmetic with booleans.

Terms are immutable, *hash-consed* trees: every constructor funnels
through a global intern table, so two structurally equal terms are the
same Python object and equality is pointer identity.  Each node carries
its structural hash, its free-variable set, its node count, and an
array-occurrence flag, all precomputed at interning time — the caches in
the solver stack key on nodes (or their ``nid``) in O(1) without ever
re-walking a subtree.

Construction goes through the smart constructors at the bottom of this
module (``add``, ``and_``, ``le``, ...), which perform light
normalization (constant folding, flattening, neutral-element removal);
direct class construction (``Le(x, y)``) also interns, so the kernel
invariant — structural equality iff identity — holds for every live
node.  The full decision procedure lives in :mod:`repro.logic.solver`.

Two sorts exist: ``INT`` and ``BOOL``.  Program variables are ``Var``
nodes; the convention throughout the code base is that boolean program
variables are modeled as 0/1 integers by the language front-end, so
``Var`` is always of sort ``INT`` while formulas are of sort ``BOOL``.

Pickling goes through :func:`_reintern`, so terms crossing the
multiprocessing portfolio boundary (see :mod:`repro.verifier.runtime`)
rejoin the receiving process's intern table instead of silently breaking
identity.  The table itself holds nodes weakly; the only strong
references the kernel keeps are the derived memos (``substitute``,
``rename``, and the caches other modules register via
:func:`register_kernel_cache`), which :func:`compact_kernel` clears.
"""

from __future__ import annotations

import itertools
import weakref
from _weakref import _remove_dead_weakref
from operator import attrgetter
from typing import Mapping


# ---------------------------------------------------------------------------
# Kernel state: intern table, node ids, counters, registered memos
# ---------------------------------------------------------------------------

class KernelStats:
    """Process-wide cumulative counters for the interning kernel."""

    __slots__ = (
        "intern_hits",
        "intern_misses",
        "reintern_count",
        "substitute_hits",
        "substitute_misses",
        "free_vars_calls",
        "kernel_compactions",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.intern_hits = 0
        self.intern_misses = 0
        self.reintern_count = 0
        self.substitute_hits = 0
        self.substitute_misses = 0
        self.free_vars_calls = 0
        self.kernel_compactions = 0


_stats = KernelStats()

#: intern key -> ``KeyedRef`` to the canonical node, so a node lives
#: exactly as long as something outside the table references it.  A
#: leaf's key is ``(tag, value)``; an inner node's is ``(tag, child
#: nids...)``, so a lookup hashes ints in C.  A node holds its children
#: and nids are never reused, so a key can never name a different node.
_table: dict[tuple, weakref.KeyedRef] = {}

#: the default of a table lookup: calling it returns ``None``, as a
#: dead ref does, so a lookup is one ``get`` and one call
_NO_REF = type(None)

_NID = attrgetter("nid")


def _drop(ref: weakref.KeyedRef) -> None:
    """Dead-ref callback: remove the entry unless a live node replaced it."""
    _remove_dead_weakref(_table, ref.key)

#: monotone, never reused: caches keyed by ``nid`` can outlive the node
#: they describe without ever producing a wrong hit
_nid_counter = itertools.count(1)

#: derived memos that hold strong references to terms; compaction clears
#: them (the weak table then releases any nodes nothing else keeps alive)
_kernel_caches: list[dict] = []

#: default derived-memo budget before ``verify()`` compacts the kernel
KERNEL_COMPACT_THRESHOLD = 200_000


def register_kernel_cache(cache: dict) -> dict:
    """Register a term-keyed memo so :func:`compact_kernel` can clear it."""
    _kernel_caches.append(cache)
    return cache


def intern_table_size() -> int:
    """The number of live canonical nodes."""
    return len(_table)


def kernel_counters() -> dict[str, int]:
    """Snapshot of the cumulative kernel counters plus the table size."""
    return {
        "intern_hits": _stats.intern_hits,
        "intern_misses": _stats.intern_misses,
        "reintern_count": _stats.reintern_count,
        "substitute_hits": _stats.substitute_hits,
        "substitute_misses": _stats.substitute_misses,
        "free_vars_calls": _stats.free_vars_calls,
        "kernel_compactions": _stats.kernel_compactions,
        "intern_table_size": len(_table),
    }


def compact_kernel(threshold: int = 0) -> int:
    """Clear the registered derived memos if they exceed *threshold* entries.

    Called at the ``verify()`` boundary so long portfolio runs do not
    accumulate term references across independent queries.  Clearing a
    memo never changes results (all memoized functions are pure) and the
    intern table itself is weak, so canonicity of live nodes survives.
    Returns the number of entries dropped (0 if under the threshold).
    """
    total = sum(len(cache) for cache in _kernel_caches)
    if total <= threshold:
        return 0
    for cache in _kernel_caches:
        cache.clear()
    _stats.kernel_compactions += 1
    return total


_EMPTY_VARS: frozenset[str] = frozenset()


def _union_vars(children) -> frozenset[str]:
    """Union of the children's free-variable sets, sharing when possible."""
    out = _EMPTY_VARS
    for child in children:
        fv = child.free_vars
        if not fv:
            continue
        if not out:
            out = fv
        elif not fv <= out:
            out = out | fv
    return out


class Term:
    """Base class for all term nodes.

    Nodes are interned: ``__new__`` on every subclass returns the
    canonical instance for its structural key, so equality *is* object
    identity (``__eq__`` is inherited from ``object``) and ``__hash__``
    returns the precomputed structural hash.  ``Term`` instances must
    never be mutated after interning.

    Precomputed per node: ``nid`` (monotone id, never reused),
    ``free_vars`` (frozenset of variable names), ``size`` (node count),
    ``has_arrays`` (any ``AVar``/``Select``/``Store`` in the subtree).
    """

    __slots__ = ("nid", "_hash", "free_vars", "size", "has_arrays", "__weakref__")

    def __hash__(self) -> int:
        return self._hash

    def __and__(self, other: "Term") -> "Term":
        return and_(self, other)

    def __or__(self, other: "Term") -> "Term":
        return or_(self, other)

    def __invert__(self) -> "Term":
        return not_(self)

    def implies(self, other: "Term") -> "Term":
        return implies(self, other)


def _finish(
    node: Term, key: tuple, structure: tuple, free: frozenset, size: int, arrays: bool
) -> None:
    """Fill in a new node and enter it in the table under *key*.

    *structure* is ``(tag, *fields)``, the node's pickle fields, whose
    hash is the node's hash.
    """
    node.free_vars = free
    node.size = size
    node.has_arrays = arrays
    node._hash = hash(structure)
    node.nid = next(_nid_counter)
    _table[key] = weakref.KeyedRef(node, _drop, key)


class IntConst(Term):
    """An integer literal."""

    __slots__ = ("value",)

    def __new__(cls, value: int) -> "IntConst":
        if value.__class__ is not int:
            value = int(value)
        key = (1, value)
        node = _table.get(key, _NO_REF)()
        if node is not None:
            _stats.intern_hits += 1
            return node
        _stats.intern_misses += 1
        node = object.__new__(cls)
        node.value = value
        _finish(node, key, key, _EMPTY_VARS, 1, False)
        return node

    def __reduce__(self):
        return (_reintern, (1, self.value))

    def __repr__(self) -> str:
        return str(self.value)


class BoolConst(Term):
    """A boolean literal (``true`` / ``false``)."""

    __slots__ = ("value",)

    def __new__(cls, value: bool) -> "BoolConst":
        if value.__class__ is not bool:
            value = bool(value)
        key = (0, value)
        node = _table.get(key, _NO_REF)()
        if node is not None:
            _stats.intern_hits += 1
            return node
        _stats.intern_misses += 1
        node = object.__new__(cls)
        node.value = value
        _finish(node, key, key, _EMPTY_VARS, 1, False)
        return node

    def __reduce__(self):
        return (_reintern, (0, self.value))

    def __repr__(self) -> str:
        return "true" if self.value else "false"


class Var(Term):
    """An integer-sorted variable, identified by name."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Var":
        key = (2, name)
        node = _table.get(key, _NO_REF)()
        if node is not None:
            _stats.intern_hits += 1
            return node
        _stats.intern_misses += 1
        node = object.__new__(cls)
        node.name = name
        _finish(node, key, key, frozenset((name,)), 1, False)
        return node

    def __reduce__(self):
        return (_reintern, (2, self.name))

    def __repr__(self) -> str:
        return self.name


class Add(Term):
    """N-ary integer addition."""

    __slots__ = ("args",)

    def __new__(cls, args: tuple) -> "Add":
        key = (3, *map(_NID, args))
        node = _table.get(key, _NO_REF)()
        if node is not None:
            _stats.intern_hits += 1
            return node
        _stats.intern_misses += 1
        node = object.__new__(cls)
        node.args = args
        size = 1
        arrays = False
        for a in args:
            size += a.size
            arrays |= a.has_arrays
        _finish(node, key, (3, args), _union_vars(args), size, arrays)
        return node

    def __reduce__(self):
        return (_reintern, (3, self.args))

    def __repr__(self) -> str:
        return "(" + " + ".join(map(repr, self.args)) + ")"


class Mul(Term):
    """Multiplication of a term by an integer coefficient (linear only)."""

    __slots__ = ("coeff", "arg")

    def __new__(cls, coeff: int, arg: Term) -> "Mul":
        if coeff.__class__ is not int:
            coeff = int(coeff)
        key = (5, coeff, arg.nid)
        node = _table.get(key, _NO_REF)()
        if node is not None:
            _stats.intern_hits += 1
            return node
        _stats.intern_misses += 1
        node = object.__new__(cls)
        node.coeff = coeff
        node.arg = arg
        _finish(
            node, key, (5, coeff, arg), arg.free_vars, 1 + arg.size, arg.has_arrays
        )
        return node

    def __reduce__(self):
        return (_reintern, (5, self.coeff, self.arg))

    def __repr__(self) -> str:
        return f"{self.coeff}*{self.arg!r}"


class Ite(Term):
    """Integer-sorted if-then-else."""

    __slots__ = ("cond", "then", "else_")

    def __new__(cls, cond: Term, then: Term, else_: Term) -> "Ite":
        key = (7, cond.nid, then.nid, else_.nid)
        node = _table.get(key, _NO_REF)()
        if node is not None:
            _stats.intern_hits += 1
            return node
        _stats.intern_misses += 1
        node = object.__new__(cls)
        node.cond = cond
        node.then = then
        node.else_ = else_
        _finish(
            node,
            key,
            (7, cond, then, else_),
            _union_vars((cond, then, else_)),
            1 + cond.size + then.size + else_.size,
            cond.has_arrays or then.has_arrays or else_.has_arrays,
        )
        return node

    def __reduce__(self):
        return (_reintern, (7, self.cond, self.then, self.else_))

    def __repr__(self) -> str:
        return f"ite({self.cond!r}, {self.then!r}, {self.else_!r})"


class AVar(Term):
    """An array-sorted variable (int -> int); models the heap (§8)."""

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "AVar":
        key = (8, name)
        node = _table.get(key, _NO_REF)()
        if node is not None:
            _stats.intern_hits += 1
            return node
        _stats.intern_misses += 1
        node = object.__new__(cls)
        node.name = name
        _finish(node, key, key, frozenset((name,)), 1, True)
        return node

    def __reduce__(self):
        return (_reintern, (8, self.name))

    def __repr__(self) -> str:
        return self.name


class Select(Term):
    """Array read ``array[index]`` (int-sorted)."""

    __slots__ = ("array", "index")

    def __new__(cls, array: Term, index: Term) -> "Select":
        key = (11, array.nid, index.nid)
        node = _table.get(key, _NO_REF)()
        if node is not None:
            _stats.intern_hits += 1
            return node
        _stats.intern_misses += 1
        node = object.__new__(cls)
        node.array = array
        node.index = index
        _finish(
            node,
            key,
            (11, array, index),
            _union_vars((array, index)),
            1 + array.size + index.size,
            True,
        )
        return node

    def __reduce__(self):
        return (_reintern, (11, self.array, self.index))

    def __repr__(self) -> str:
        return f"{self.array!r}[{self.index!r}]"


class Store(Term):
    """Array write ``array[index := value]`` (array-sorted)."""

    __slots__ = ("array", "index", "value")

    def __new__(cls, array: Term, index: Term, value: Term) -> "Store":
        key = (13, array.nid, index.nid, value.nid)
        node = _table.get(key, _NO_REF)()
        if node is not None:
            _stats.intern_hits += 1
            return node
        _stats.intern_misses += 1
        node = object.__new__(cls)
        node.array = array
        node.index = index
        node.value = value
        _finish(
            node,
            key,
            (13, array, index, value),
            _union_vars((array, index, value)),
            1 + array.size + index.size + value.size,
            True,
        )
        return node

    def __reduce__(self):
        return (_reintern, (13, self.array, self.index, self.value))

    def __repr__(self) -> str:
        return f"{self.array!r}[{self.index!r} := {self.value!r}]"


class _BinAtom(Term):
    """Shared interning machinery for the two binary atoms."""

    __slots__ = ("lhs", "rhs")
    _TAG = 0

    def __new__(cls, lhs: Term, rhs: Term):
        tag = cls._TAG
        key = (tag, lhs.nid, rhs.nid)
        node = _table.get(key, _NO_REF)()
        if node is not None:
            _stats.intern_hits += 1
            return node
        _stats.intern_misses += 1
        node = object.__new__(cls)
        node.lhs = lhs
        node.rhs = rhs
        _finish(
            node,
            key,
            (tag, lhs, rhs),
            _union_vars((lhs, rhs)),
            1 + lhs.size + rhs.size,
            lhs.has_arrays or rhs.has_arrays,
        )
        return node

    def __reduce__(self):
        return (_reintern, (self._TAG, self.lhs, self.rhs))


class Le(_BinAtom):
    """Atom ``lhs <= rhs`` over integer terms."""

    __slots__ = ()
    _TAG = 17

    def __repr__(self) -> str:
        return f"({self.lhs!r} <= {self.rhs!r})"


class Eq(_BinAtom):
    """Atom ``lhs == rhs`` over integer terms."""

    __slots__ = ()
    _TAG = 19

    def __repr__(self) -> str:
        return f"({self.lhs!r} == {self.rhs!r})"


class Not(Term):
    __slots__ = ("arg",)

    def __new__(cls, arg: Term) -> "Not":
        key = (23, arg.nid)
        node = _table.get(key, _NO_REF)()
        if node is not None:
            _stats.intern_hits += 1
            return node
        _stats.intern_misses += 1
        node = object.__new__(cls)
        node.arg = arg
        _finish(node, key, (23, arg), arg.free_vars, 1 + arg.size, arg.has_arrays)
        return node

    def __reduce__(self):
        return (_reintern, (23, self.arg))

    def __repr__(self) -> str:
        return f"!{self.arg!r}"


class _NaryBool(Term):
    """Shared interning machinery for the n-ary connectives."""

    __slots__ = ("args",)
    _TAG = 0

    def __new__(cls, args: tuple):
        tag = cls._TAG
        key = (tag, *map(_NID, args))
        node = _table.get(key, _NO_REF)()
        if node is not None:
            _stats.intern_hits += 1
            return node
        _stats.intern_misses += 1
        node = object.__new__(cls)
        node.args = args
        size = 1
        arrays = False
        for a in args:
            size += a.size
            arrays |= a.has_arrays
        _finish(node, key, (tag, args), _union_vars(args), size, arrays)
        return node

    def __reduce__(self):
        return (_reintern, (self._TAG, self.args))


class And(_NaryBool):
    __slots__ = ()
    _TAG = 29

    def __repr__(self) -> str:
        return "(" + " && ".join(map(repr, self.args)) + ")"


class Or(_NaryBool):
    __slots__ = ()
    _TAG = 31

    def __repr__(self) -> str:
        return "(" + " || ".join(map(repr, self.args)) + ")"


#: pickle tag -> constructor; :func:`_reintern` routes unpickled nodes
#: back through ``__new__`` so they land in this process's intern table
_NODE_TYPES: dict[int, type] = {
    0: BoolConst,
    1: IntConst,
    2: Var,
    3: Add,
    5: Mul,
    7: Ite,
    8: AVar,
    11: Select,
    13: Store,
    17: Le,
    19: Eq,
    23: Not,
    29: And,
    31: Or,
}


def _reintern(tag: int, *fields) -> Term:
    """Pickle/deepcopy hook: rebuild through the interner.

    Child terms in *fields* have already been re-interned by their own
    ``__reduce__`` round-trips, so the constructor call below is a plain
    table lookup whenever the structure already exists in this process.
    """
    _stats.reintern_count += 1
    return _NODE_TYPES[tag](*fields)


TRUE = BoolConst(True)
FALSE = BoolConst(False)
ZERO = IntConst(0)
ONE = IntConst(1)

#: strongly held so the hottest constants never churn through the weak table
_SMALL_INTS = tuple(IntConst(v) for v in range(-64, 257))


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

def intc(value: int) -> IntConst:
    """Integer constant."""
    return IntConst(value)


def boolc(value: bool) -> BoolConst:
    return TRUE if value else FALSE


def var(name: str) -> Var:
    return Var(name)


def add(*args: Term) -> Term:
    """Sum of integer terms, folding constants and flattening nested sums."""
    flat: list[Term] = []
    const = 0
    for a in args:
        if isinstance(a, Add):
            flat.extend(a.args)
        else:
            flat.append(a)
    terms: list[Term] = []
    for a in flat:
        if isinstance(a, IntConst):
            const += a.value
        elif isinstance(a, Mul) and a.coeff == 0:
            pass
        else:
            terms.append(a)
    if const != 0 or not terms:
        terms.append(IntConst(const))
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def mul(coeff: int, arg: Term) -> Term:
    """Product of an integer coefficient and a term."""
    if coeff == 0:
        return ZERO
    if coeff == 1:
        return arg
    if isinstance(arg, IntConst):
        return IntConst(coeff * arg.value)
    if isinstance(arg, Mul):
        return mul(coeff * arg.coeff, arg.arg)
    if isinstance(arg, Add):
        return add(*(mul(coeff, a) for a in arg.args))
    return Mul(coeff, arg)


def sub(lhs: Term, rhs: Term) -> Term:
    return add(lhs, mul(-1, rhs))


def ite(cond: Term, then: Term, else_: Term) -> Term:
    if isinstance(cond, BoolConst):
        return then if cond.value else else_
    if then is else_:
        return then
    return Ite(cond, then, else_)


def avar(name: str) -> AVar:
    return AVar(name)


def select(array: Term, index: Term) -> Term:
    """Array read with read-over-write simplification.

    ``store(a, i, v)[j]`` rewrites to ``ite(i == j, v, a[j])`` — after
    full rewriting only reads on array *variables* remain, which the
    solver Ackermannizes (see :mod:`repro.logic.arrays`).
    """
    if isinstance(array, Store):
        same = eq(array.index, index)
        if same is TRUE:
            return array.value
        if same is FALSE:
            return select(array.array, index)
        return ite(same, array.value, select(array.array, index))
    return Select(array, index)


def store(array: Term, index: Term, value: Term) -> Term:
    """Array write; consecutive writes to the same index collapse."""
    if isinstance(array, Store) and array.index is index:
        return Store(array.array, index, value)
    return Store(array, index, value)


def le(lhs: Term, rhs: Term) -> Term:
    diff = sub(lhs, rhs)
    if isinstance(diff, IntConst):
        return boolc(diff.value <= 0)
    return Le(lhs, rhs)


def lt(lhs: Term, rhs: Term) -> Term:
    # over integers, a < b  iff  a + 1 <= b
    return le(add(lhs, ONE), rhs)


def ge(lhs: Term, rhs: Term) -> Term:
    return le(rhs, lhs)


def gt(lhs: Term, rhs: Term) -> Term:
    return lt(rhs, lhs)


def eq(lhs: Term, rhs: Term) -> Term:
    if lhs is rhs:
        return TRUE
    diff = sub(lhs, rhs)
    if isinstance(diff, IntConst):
        return boolc(diff.value == 0)
    return Eq(lhs, rhs)


def ne(lhs: Term, rhs: Term) -> Term:
    return not_(eq(lhs, rhs))


def not_(arg: Term) -> Term:
    if isinstance(arg, BoolConst):
        return boolc(not arg.value)
    if isinstance(arg, Not):
        return arg.arg
    return Not(arg)


def _distinct(flat: list[Term]) -> list[Term] | None:
    """The first occurrence of each term in *flat*, in order, or ``None``
    if some term meets its complement (``not_`` of it).

    Membership is by ``nid``, since equality is identity.  No complement
    is built to look for it: a ``Not``'s complement is its ``arg`` and a
    constant's is the other constant; any other term's complement is a
    ``Not`` over it, so it was kept iff the term is some kept ``Not``'s
    ``arg``.
    """
    kept: list[Term] = []
    nids: set[int] = set()
    negated: set[int] = set()  # the args' nids of the kept Not nodes
    for a in flat:
        nid = a.nid
        if nid in nids:
            continue
        cls = a.__class__
        if cls is Not:
            inner = a.arg.nid
            if inner in nids:
                return None
            negated.add(inner)
        elif cls is BoolConst:
            if (FALSE if a.value else TRUE).nid in nids:
                return None
        elif nid in negated:
            return None
        nids.add(nid)
        kept.append(a)
    return kept


def and_(*args: Term) -> Term:
    flat: list[Term] = []
    for a in args:
        if isinstance(a, And):
            flat.extend(a.args)
        elif a is TRUE:
            pass
        elif a is FALSE:
            return FALSE
        else:
            flat.append(a)
    seen = _distinct(flat)
    if seen is None:
        return FALSE
    if not seen:
        return TRUE
    if len(seen) == 1:
        return seen[0]
    return And(tuple(seen))


def or_(*args: Term) -> Term:
    flat: list[Term] = []
    for a in args:
        if isinstance(a, Or):
            flat.extend(a.args)
        elif a is FALSE:
            pass
        elif a is TRUE:
            return TRUE
        else:
            flat.append(a)
    seen = _distinct(flat)
    if seen is None:
        return TRUE
    if not seen:
        return FALSE
    if len(seen) == 1:
        return seen[0]
    return Or(tuple(seen))


def implies(lhs: Term, rhs: Term) -> Term:
    return or_(not_(lhs), rhs)


def iff(lhs: Term, rhs: Term) -> Term:
    return and_(implies(lhs, rhs), implies(rhs, lhs))


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------

def free_vars(term: Term) -> frozenset[str]:
    """The set of variable names occurring in *term*.

    Precomputed per node at interning time; every call is O(1).  Hot
    loops read ``term.free_vars`` directly.
    """
    _stats.free_vars_calls += 1
    return term.free_vars


_SUBSTITUTE_MEMO_LIMIT = 500_000
_substitute_memo: dict[tuple, Term] = register_kernel_cache({})


def _mapping_key(mapping: Mapping[str, Term]) -> tuple:
    # names are unique within a mapping, so sorting never compares terms
    return tuple(sorted(mapping.items()))


def substitute(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneously substitute variables by terms.

    Substitution rebuilds the tree through the smart constructors, so
    the result is normalized (e.g. constants fold away).  Subtrees whose
    precomputed ``free_vars`` are disjoint from the mapping are returned
    as-is (rebuilding a canonical node is the identity), and results are
    memoized process-wide by ``(node, mapping)``.
    """
    if not mapping:
        return term
    keys = mapping.keys()
    if term.free_vars.isdisjoint(keys):
        _stats.substitute_hits += 1
        return term
    mkey = _mapping_key(mapping)
    memo = _substitute_memo

    def go(t: Term) -> Term:
        if t.free_vars.isdisjoint(keys):
            return t
        k = (t, mkey)
        hit = memo.get(k)
        if hit is not None:
            _stats.substitute_hits += 1
            return hit
        _stats.substitute_misses += 1
        if isinstance(t, Var):
            out = mapping.get(t.name, t)
        elif isinstance(t, AVar):
            out = mapping.get(t.name, t)
        elif isinstance(t, Select):
            out = select(go(t.array), go(t.index))
        elif isinstance(t, Store):
            out = store(go(t.array), go(t.index), go(t.value))
        elif isinstance(t, Add):
            out = add(*(go(a) for a in t.args))
        elif isinstance(t, Mul):
            out = mul(t.coeff, go(t.arg))
        elif isinstance(t, Not):
            out = not_(go(t.arg))
        elif isinstance(t, And):
            out = and_(*(go(a) for a in t.args))
        elif isinstance(t, Or):
            out = or_(*(go(a) for a in t.args))
        elif isinstance(t, Le):
            out = le(go(t.lhs), go(t.rhs))
        elif isinstance(t, Eq):
            out = eq(go(t.lhs), go(t.rhs))
        elif isinstance(t, Ite):
            out = ite(go(t.cond), go(t.then), go(t.else_))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown term node: {t!r}")
        if len(memo) < _SUBSTITUTE_MEMO_LIMIT:
            memo[k] = out
        return out

    return go(term)


_rename_maps: dict[tuple, dict[str, Var]] = register_kernel_cache({})


def rename(term: Term, mapping: Mapping[str, str]) -> Term:
    """Substitute variables by variables.

    The name->``Var`` dictionary is memoized per renaming, so repeated
    SSA passes reuse both the interned ``Var`` nodes and the mapping
    object itself.
    """
    key = tuple(sorted(mapping.items()))
    var_map = _rename_maps.get(key)
    if var_map is None:
        var_map = {k: Var(v) for k, v in mapping.items()}
        if len(_rename_maps) < 10_000:
            _rename_maps[key] = var_map
    return substitute(term, var_map)


def evaluate(term: Term, env: Mapping[str, int]):
    """Evaluate *term* under a total integer environment.

    Returns an ``int`` for integer-sorted terms and a ``bool`` for
    boolean-sorted terms.  Raises ``KeyError`` for unbound variables.
    """
    if isinstance(term, IntConst):
        return term.value
    if isinstance(term, BoolConst):
        return term.value
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, Add):
        return sum(evaluate(a, env) for a in term.args)
    if isinstance(term, Mul):
        return term.coeff * evaluate(term.arg, env)
    if isinstance(term, Not):
        return not evaluate(term.arg, env)
    if isinstance(term, And):
        return all(evaluate(a, env) for a in term.args)
    if isinstance(term, Or):
        return any(evaluate(a, env) for a in term.args)
    if isinstance(term, Le):
        return evaluate(term.lhs, env) <= evaluate(term.rhs, env)
    if isinstance(term, Eq):
        return evaluate(term.lhs, env) == evaluate(term.rhs, env)
    if isinstance(term, Ite):
        branch = term.then if evaluate(term.cond, env) else term.else_
        return evaluate(branch, env)
    if isinstance(term, AVar):
        # array values are mappings index -> value (missing cells are 0)
        return env[term.name]
    if isinstance(term, Select):
        array = evaluate(term.array, env)
        return dict(array).get(evaluate(term.index, env), 0)
    if isinstance(term, Store):
        array = dict(evaluate(term.array, env))
        array[evaluate(term.index, env)] = evaluate(term.value, env)
        return tuple(sorted(array.items()))
    raise TypeError(f"unknown term node: {term!r}")


#: ``nid`` → evaluation closure; nids are never reused, so entries can
#: never be wrong.  The Ite/array fallback closures capture their term,
#: so the memo is kernel-registered and emptied at compaction.
_eval_fns: dict[int, object] = register_kernel_cache({})


def compile_eval(term: Term):
    """Compile *term* into an ``env -> value`` closure (memoized by nid).

    Exactly :func:`evaluate`'s semantics — same short-circuiting, same
    ``KeyError`` on unbound variables — but the isinstance dispatch is
    paid once per distinct node instead of once per evaluation.  The
    solver's model pool evaluates the same atoms against up to 64 cached
    models; this makes each evaluation a plain closure call.
    """
    fn = _eval_fns.get(term.nid)
    if fn is not None:
        return fn
    if isinstance(term, IntConst):
        value = term.value
        fn = lambda env, _v=value: _v  # noqa: E731
    elif isinstance(term, BoolConst):
        value = term.value
        fn = lambda env, _v=value: _v  # noqa: E731
    elif isinstance(term, Var):
        name = term.name
        fn = lambda env, _n=name: env[_n]  # noqa: E731
    elif isinstance(term, Add):
        subs = tuple(compile_eval(a) for a in term.args)
        fn = lambda env, _s=subs: sum(f(env) for f in _s)  # noqa: E731
    elif isinstance(term, Mul):
        coeff, arg = term.coeff, compile_eval(term.arg)
        fn = lambda env, _k=coeff, _a=arg: _k * _a(env)  # noqa: E731
    elif isinstance(term, Not):
        arg = compile_eval(term.arg)
        fn = lambda env, _a=arg: not _a(env)  # noqa: E731
    elif isinstance(term, And):
        subs = tuple(compile_eval(a) for a in term.args)
        fn = lambda env, _s=subs: all(f(env) for f in _s)  # noqa: E731
    elif isinstance(term, Or):
        subs = tuple(compile_eval(a) for a in term.args)
        fn = lambda env, _s=subs: any(f(env) for f in _s)  # noqa: E731
    elif isinstance(term, Le):
        lhs, rhs = compile_eval(term.lhs), compile_eval(term.rhs)
        fn = lambda env, _l=lhs, _r=rhs: _l(env) <= _r(env)  # noqa: E731
    elif isinstance(term, Eq):
        lhs, rhs = compile_eval(term.lhs), compile_eval(term.rhs)
        fn = lambda env, _l=lhs, _r=rhs: _l(env) == _r(env)  # noqa: E731
    else:
        # Ite / arrays: rare in pool probes — fall back to the interpreter
        fn = lambda env, _t=term: evaluate(_t, env)  # noqa: E731
    if len(_eval_fns) < 200_000:
        _eval_fns[term.nid] = fn
    return fn
