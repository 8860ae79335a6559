"""Satisfiability and validity for quantifier-free LIA + booleans.

The solver performs DPLL-style case splitting over the boolean structure
of a formula in NNF, accumulating linear constraints along each branch
and pruning infeasible branches with rational Fourier–Motzkin checks.
Leaves are decided by integer branch-and-bound (:mod:`repro.logic.fourier`).
Each decided formula is compiled first (:func:`_compile`), so the search
walks tuples and constraint bitmasks, never terms.

Soundness notes:

* rational infeasibility implies integer infeasibility, so UNSAT answers
  are always sound;
* SAT answers come with an integer model, so they are sound as well;
* in the (rare, bounded-budget) case where branch-and-bound cannot reach
  a verdict, :class:`SolverUnknown` is raised; callers treat "unknown"
  conservatively (e.g. commutativity falls back to "does not commute",
  exactly as GemCutter does with its SMT timeout — see §8 of the paper).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .arrays import UnsupportedArrayFormula, ackermannize, contains_arrays
from .atoms import LinearConstraint, atom_constraints
from .fourier import (
    BranchBudgetExceeded,
    canonical,
    mask_core,
    mask_integer_model,
    mask_of,
)
from .terms import register_kernel_cache
from .terms import (
    And,
    BoolConst,
    Eq,
    FALSE,
    Ite,
    Le,
    Mul,
    Add,
    Not,
    Or,
    TRUE,
    Term,
    add,
    and_,
    compile_eval,
    eq,
    gt,
    le,
    lt,
    mul,
    not_,
    or_,
)


class SolverUnknown(Exception):
    """The solver could not decide the query within its budget."""


@dataclass
class SolverStats:
    """Instrumentation counters for one :class:`Solver` instance.

    ``sat_queries`` counts public satisfiability-level questions
    (``is_sat`` and everything funnelled through it: validity,
    implication, equivalence).  A question is answered either by the
    normalized-formula cache (``cache_hits``), by a remembered model
    (``model_pool_hits``), by a cached same-epoch UNKNOWN
    (``unknown_cache_hits``), or by a full run of the decision procedure
    (``decisions``).  ``time_seconds`` is wall-clock spent inside the
    decision procedure only — the cache layers are excluded, so the
    saved work is visible as the gap to the end-to-end time.
    """

    sat_queries: int = 0
    cache_hits: int = 0
    model_pool_hits: int = 0
    unknown_cache_hits: int = 0
    decisions: int = 0
    unknowns: int = 0
    time_seconds: float = 0.0
    nodes_searched: int = 0
    max_query_nodes: int = 0


# ---------------------------------------------------------------------------
# Ite lifting
# ---------------------------------------------------------------------------

def _find_ite(term: Term) -> Ite | None:
    """The first ``Ite`` node nested inside an integer-sorted term."""
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Ite):
            return t
        if isinstance(t, Add):
            stack.extend(t.args)
        elif isinstance(t, Mul):
            stack.append(t.arg)
    return None


def _replace(term: Term, target: Term, replacement: Term) -> Term:
    """Replace all occurrences of *target* inside an integer-sorted term."""
    if term == target:
        return replacement
    if isinstance(term, Add):
        return add(*(_replace(a, target, replacement) for a in term.args))
    if isinstance(term, Mul):
        return mul(term.coeff, _replace(term.arg, target, replacement))
    return term


_lift_ite_cache: dict[Term, Term] = register_kernel_cache({})


def lift_ite(formula: Term) -> Term:
    """Rewrite a formula so no atom contains an ``Ite`` node.

    An atom ``A[ite(c, t, e)]`` becomes ``(c && A[t]) || (!c && A[e])``.
    The condition ``c`` is itself recursively lifted.  Memoized
    process-wide: lifting is pure and terms are interned, so the node is
    the cache key.
    """
    hit = _lift_ite_cache.get(formula)
    if hit is not None:
        return hit
    result = _lift_ite(formula)
    if len(_lift_ite_cache) < 200_000:
        _lift_ite_cache[formula] = result
    return result


def _lift_ite(formula: Term) -> Term:
    if isinstance(formula, BoolConst):
        return formula
    if isinstance(formula, Not):
        return not_(lift_ite(formula.arg))
    # only and_/or_ build And/Or nodes, so every live one is normal and
    # rebuilding it from unchanged args would return it
    if isinstance(formula, And):
        parts = tuple(lift_ite(a) for a in formula.args)
        return formula if parts == formula.args else and_(*parts)
    if isinstance(formula, Or):
        parts = tuple(lift_ite(a) for a in formula.args)
        return formula if parts == formula.args else or_(*parts)
    if isinstance(formula, (Le, Eq)):
        sides = (formula.lhs, formula.rhs)
        for side in sides:
            found = _find_ite(side)
            if found is not None:
                then_atom = _rebuild_atom(formula, found, found.then)
                else_atom = _rebuild_atom(formula, found, found.else_)
                cond = lift_ite(found.cond)
                return or_(
                    and_(cond, lift_ite(then_atom)),
                    and_(not_(cond), lift_ite(else_atom)),
                )
        return formula
    raise TypeError(f"not a formula: {formula!r}")


def _rebuild_atom(atom: Term, target: Term, replacement: Term) -> Term:
    if isinstance(atom, Le):
        return le(_replace(atom.lhs, target, replacement), _replace(atom.rhs, target, replacement))
    if isinstance(atom, Eq):
        return eq(_replace(atom.lhs, target, replacement), _replace(atom.rhs, target, replacement))
    raise TypeError(f"not an atom: {atom!r}")


# ---------------------------------------------------------------------------
# NNF
# ---------------------------------------------------------------------------

_nnf_cache: dict[tuple[Term, bool], Term] = register_kernel_cache({})


def to_nnf(formula: Term, *, negate: bool = False) -> Term:
    """Negation normal form; negations remain only directly on atoms.

    Memoized process-wide by ``(node, polarity)``.
    """
    key = (formula, negate)
    hit = _nnf_cache.get(key)
    if hit is not None:
        return hit
    result = _to_nnf(formula, negate)
    if len(_nnf_cache) < 200_000:
        _nnf_cache[key] = result
    return result


def _to_nnf(formula: Term, negate: bool) -> Term:
    if isinstance(formula, BoolConst):
        return BoolConst(formula.value != negate)
    if isinstance(formula, Not):
        return to_nnf(formula.arg, negate=not negate)
    # positive polarity keeps a normal And/Or whose args are unchanged
    # (see _lift_ite); equality of the tuples is identity of the args
    if isinstance(formula, And):
        parts = tuple(to_nnf(a, negate=negate) for a in formula.args)
        if negate:
            return or_(*parts)
        return formula if parts == formula.args else and_(*parts)
    if isinstance(formula, Or):
        parts = tuple(to_nnf(a, negate=negate) for a in formula.args)
        if negate:
            return and_(*parts)
        return formula if parts == formula.args else or_(*parts)
    if isinstance(formula, (Le, Eq)):
        return not_(formula) if negate else formula
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# DPLL-style search
# ---------------------------------------------------------------------------

#: keyed by ``literal.nid`` — the values carry no terms, so the memo
#: never pins a node; a dead literal's entry is unreachable, never wrong
_branches_cache: dict[int, tuple[tuple[LinearConstraint, ...], ...]] = {}


def _branches(literal: Term) -> tuple[tuple[LinearConstraint, ...], ...]:
    """Constraint alternatives for one NNF literal (memoized).

    Positive ``Le``/``Eq`` yield a single alternative; ``!Eq`` splits
    into the two strict sides.
    """
    cached = _branches_cache.get(literal.nid)
    if cached is not None:
        return cached
    if isinstance(literal, Le):
        result = (atom_constraints(literal, negated=False),)
    elif isinstance(literal, Eq):
        result = (atom_constraints(literal, negated=False),)
    elif isinstance(literal, Not):
        atom = literal.arg
        if isinstance(atom, Le):
            result = (atom_constraints(atom, negated=True),)
        elif isinstance(atom, Eq):
            # lhs != rhs:  lhs < rhs  or  lhs > rhs
            result = (
                atom_constraints(lt(atom.lhs, atom.rhs), negated=False),
                atom_constraints(gt(atom.lhs, atom.rhs), negated=False),
            )
        else:
            raise TypeError(f"not an NNF literal: {literal!r}")
    else:
        raise TypeError(f"not an NNF literal: {literal!r}")
    if len(_branches_cache) < 200_000:
        _branches_cache[literal.nid] = result
    return result


def _theory_branches(literal: Term) -> tuple[frozenset[LinearConstraint] | None, ...]:
    """:func:`_branches` with each alternative tightened: its
    :func:`~repro.logic.fourier.canonical` set, or ``None`` for an
    alternative holding a trivially false constraint."""
    return tuple(canonical(branch) for branch in _branches(literal))


#: the compiled form of a formula a search node takes in:
#: ``(false, units, ors, splits)``.  *false* says some conjunct is
#: false; *units* is the mask of every unit literal's constraints;
#: *ors* holds the arguments of each disjunction, and *splits* the side
#: masks of each disequality, both in the order the search meets them
#: walking the And/Or skeleton
_Item = tuple[bool, int, tuple, tuple]

_TRUE_ITEM: _Item = (False, 0, (), ())
_FALSE_ITEM: _Item = (True, 0, (), ())

#: keyed by ``literal.nid`` like :data:`_branches_cache`: the literal's
#: compiled item, built from the masks of its :func:`_theory_branches`
#: alternatives
_literal_cache: dict[int, _Item] = {}


def _literal_item(literal: Term) -> _Item:
    """A literal's compiled item (memoized): a unit literal's mask, a
    disequality's two side masks (``None`` for a trivially false side),
    or false."""
    cached = _literal_cache.get(literal.nid)
    if cached is None:
        masks = tuple(
            None if key is None else mask_of(key)
            for key in _theory_branches(literal)
        )
        if len(masks) == 2:
            cached = (False, 0, (), (masks,))
        elif masks[0] is None:
            cached = _FALSE_ITEM
        else:
            cached = (False, masks[0], (), ())
        if len(_literal_cache) < 200_000:
            _literal_cache[literal.nid] = cached
    return cached


def _compile(f: Term, memo: dict[int, _Item]) -> _Item:
    """Compile a normalized formula for :meth:`Solver._search`.

    Nested ``And``s are flattened into the order the search's work stack
    pops their conjuncts: the last argument first, each nested ``And``
    in place.  Every literal becomes its masks.  A disjunction keeps its
    arguments as terms: the search compiles one only when a split takes
    it, so a query compiles no more of its formula than it visits.
    *memo* (by ``nid``, one per query) compiles a shared subterm once.
    """
    cls = f.__class__
    if cls is And:
        hit = memo.get(f.nid)
        if hit is not None:
            return hit
        false, units, ors, splits = False, 0, [], []
        for arg in reversed(f.args):
            a_false, a_units, a_ors, a_splits = _compile(arg, memo)
            false = false or a_false
            units |= a_units
            if a_ors:
                ors.extend(a_ors)
            if a_splits:
                splits.extend(a_splits)
        result = (false, units, tuple(ors), tuple(splits))
        memo[f.nid] = result
        return result
    if cls is Or:
        return (False, 0, (f.args,), ())
    if cls is BoolConst:
        return _TRUE_ITEM if f.value else _FALSE_ITEM
    if _is_literal(f):
        return _literal_item(f)
    raise TypeError(f"unexpected node in NNF search: {f!r}")


def _is_literal(f: Term) -> bool:
    return isinstance(f, (Le, Eq)) or (isinstance(f, Not) and isinstance(f.arg, (Le, Eq)))


class _PoolModel(dict):
    """A remembered model; a variable it does not mention reads as 0."""

    def __missing__(self, name: str) -> int:
        return 0


class Solver:
    """A caching solver facade.

    All public methods accept arbitrary formulas (``Ite`` allowed) and
    answer over the integers.  Verdicts are memoized under the
    *normalized* formula — the NNF of the ite-lifted (and, for array
    formulas, Ackermannized) input — so syntactically different phrasings
    of the same query share one cache entry.  The number of (uncached)
    decision calls is tracked in :attr:`num_queries` / :attr:`stats` for
    the evaluation harness.

    Deadline epochs: UNKNOWN verdicts caused by an exhausted budget are
    remembered only for the current *deadline epoch* — the epoch advances
    whenever :attr:`deadline` is assigned a new value, so a query that
    timed out under an expired deadline is retried under a fresh budget
    instead of leaking a stale UNKNOWN into the next run.  Definite
    SAT/UNSAT verdicts are deadline-independent and cached across epochs.

    ``enable_cache=False`` turns every memoization layer off (the
    differential test suite uses this to prove the cache is semantically
    invisible).
    """

    def __init__(
        self,
        *,
        branch_budget: int = 400,
        cache_size: int = 200_000,
        node_budget: int = 200_000,
        enable_cache: bool = True,
    ) -> None:
        self._branch_budget = branch_budget
        self._cache_size = cache_size
        self._node_budget = node_budget
        self._enable_cache = enable_cache
        self._nodes_this_query = 0
        #: the key (a constraint mask) at each depth of the search's
        #: current path
        self._path: list[int] = []
        #: the query's compiled subterms (see :func:`_compile`)
        self._items: dict[int, _Item] = {}
        # all three caches key on interned-node ids: hashing is O(1) and
        # a hit never pays a structural compare; nids are never reused,
        # so entries for dead nodes are unreachable, never wrong
        self._sat_cache: dict[int, bool] = {}
        self._normal_cache: dict[int, tuple[Term, Term]] = {}
        self._unknown_cache: dict[int, int] = {}
        self._model_pool: list[_PoolModel] = []
        #: every pool bit set
        self._pool_all = 0
        #: :meth:`_pool_masks` memo, keyed by ``nid``; emptied whenever
        #: the pool changes
        self._mask_memo: dict[int, tuple[int, int]] = {}
        self.num_queries = 0
        self.stats = SolverStats()
        self._deadline: float | None = None
        self._deadline_epoch = 0
        #: optional fault-injection hook (repro.verifier.faults); called
        #: once per sat-level query, before any cache lookup, so injected
        #: schedules are a pure function of the query index
        self.fault_injector = None
        #: optional persistent proof store (repro.store.ProofStore);
        #: consulted after every in-memory layer misses and written back
        #: with definite verdicts only — an UNKNOWN raise never reaches
        #: the write, so budget-dependent outcomes are never persisted
        self.proof_store = None

    @property
    def deadline(self) -> float | None:
        """Optional absolute wall-clock deadline (time.perf_counter());
        long-running queries abort with SolverUnknown past it.  Assigning
        a new value starts a new deadline epoch, invalidating cached
        UNKNOWNs from the previous budget."""
        return self._deadline

    @deadline.setter
    def deadline(self, value: float | None) -> None:
        if value != self._deadline:
            self._deadline_epoch += 1
            self._unknown_cache.clear()
        self._deadline = value

    def _remember_model(self, model: dict[str, int]) -> None:
        """Keep recent models for cheap SAT witnessing of later queries."""
        if model and model not in self._model_pool:
            self._model_pool.append(_PoolModel(model))
            if len(self._model_pool) > 64:
                self._model_pool.pop(0)
            self._pool_all = (1 << len(self._model_pool)) - 1
            self._mask_memo.clear()

    def _model_pool_hit(self, formula: Term) -> bool:
        """Does some cached model satisfy *formula*? (cheap pre-check)

        The answer is that of a scan from the oldest model that stops at
        the first model satisfying *formula* (a hit) or raising
        ``TypeError`` (a miss; array formulas raise, since a pool model
        holds no array values).  Nearly every hit is the newest model,
        so a formula without arrays, which cannot raise, tries it first.
        Otherwise the answer is read off :meth:`_pool_masks`.
        """
        pool = self._model_pool
        if not pool:
            return False
        if not formula.has_arrays and compile_eval(formula)(pool[-1]):
            return True
        true, error = self._pool_masks(formula)
        stops = true | error
        return bool(stops & -stops & true)

    def _pool_masks(self, term: Term) -> tuple[int, int]:
        """``(true, error)``: bitmasks over the pool, oldest model at bit
        0, of the models under which *term* evaluates true, and of those
        under which its evaluation raises ``TypeError``.

        Atoms are evaluated model by model with :func:`compile_eval`;
        ``And``, ``Or`` and ``Not`` combine their arguments' masks with
        the short-circuit order of ``all`` / ``any``, so each bit is the
        outcome of evaluating the whole term under that model.
        Memoized by ``nid`` until the pool next changes.
        """
        masks = self._mask_memo.get(term.nid)
        if masks is not None:
            return masks
        if isinstance(term, (And, Or)):
            is_and = isinstance(term, And)
            live, true, error = self._pool_all, 0, 0
            for arg in term.args:
                t, e = self._pool_masks(arg)
                error |= live & e
                if is_and:
                    live &= t
                else:
                    true |= live & t
                    live &= ~(t | e)
                if not live:
                    break
            if is_and:
                true = live
        elif isinstance(term, Not):
            t, error = self._pool_masks(term.arg)
            true = self._pool_all & ~(t | error)
        else:
            check = compile_eval(term)
            true = error = 0
            bit = 1
            for model in self._model_pool:
                try:
                    if check(model):
                        true |= bit
                except TypeError:
                    error |= bit
                bit <<= 1
        masks = (true, error)
        if len(self._mask_memo) < self._cache_size:
            self._mask_memo[term.nid] = masks
        return masks

    # -- normalization ------------------------------------------------------

    def _normalize(self, formula: Term) -> tuple[Term, Term]:
        """``(expanded, nnf)``: the Ackermannized formula and its cache key.

        The key is the NNF of the ite-lifted expansion.  Memoized per raw
        formula, so the structural work is paid once per distinct input;
        semantically identical phrasings (double negations, implication
        vs. disjunction spellings, ...) collapse onto one normalized
        entry.
        """
        cached = self._normal_cache.get(formula.nid)
        if cached is not None:
            return cached
        expanded = formula
        if contains_arrays(expanded):
            try:
                expanded = ackermannize(expanded)
            except UnsupportedArrayFormula as exc:
                raise SolverUnknown(str(exc)) from exc
        result = (expanded, to_nnf(lift_ite(expanded)))
        if len(self._normal_cache) < self._cache_size:
            self._normal_cache[formula.nid] = result
        return result

    # -- public API ---------------------------------------------------------

    def is_sat(self, formula: Term) -> bool:
        """Is *formula* satisfiable over the integers?"""
        self.stats.sat_queries += 1
        if self.fault_injector is not None:
            self.fault_injector.before_query()
        expanded, nnf = self._normalize(formula)
        if not self._enable_cache:
            return self._decide(nnf, expanded) is not None
        hit = self._sat_cache.get(nnf.nid)
        if hit is not None:
            self.stats.cache_hits += 1
            return hit
        if self._unknown_cache.get(nnf.nid) == self._deadline_epoch:
            self.stats.unknown_cache_hits += 1
            raise SolverUnknown("cached unknown (same deadline epoch)")
        if self._model_pool_hit(formula):
            self.stats.model_pool_hits += 1
            result = True
        else:
            result = self._stored_or_decide(nnf, expanded)
        if len(self._sat_cache) < self._cache_size:
            self._sat_cache[nnf.nid] = result
        return result

    def _stored_or_decide(self, nnf: Term, expanded: Term) -> bool:
        """Persistent-store lookup, falling back to a decision run.

        The store is consulted only after every in-memory layer missed,
        so in-run behavior is byte-identical with or without it; a fresh
        decision's verdict is written back (definite verdicts only — an
        UNKNOWN propagates as an exception and never reaches the write).
        """
        store = self.proof_store
        if store is None:
            return self._decide(nnf, expanded) is not None
        from ..store import KIND_SAT, term_digest

        key = term_digest(nnf)
        hit = store.get(KIND_SAT, key)
        if hit is not None:
            return bool(hit)
        result = self._decide(nnf, expanded) is not None
        store.put(KIND_SAT, key, result)
        return result

    def is_valid(self, formula: Term) -> bool:
        """Is *formula* true under every integer assignment?"""
        return not self.is_sat(not_(formula))

    def implies(self, antecedent: Term, consequent: Term) -> bool:
        """Does *antecedent* entail *consequent*?

        A conjunctive consequent is split into one query per conjunct —
        the queries are smaller and their cache entries are shared
        across different enclosing conjunctions.
        """
        if antecedent == FALSE or consequent == TRUE or antecedent == consequent:
            return True
        if isinstance(consequent, And):
            return all(self.implies(antecedent, part) for part in consequent.args)
        return not self.is_sat(and_(antecedent, not_(consequent)))

    def equivalent(self, a: Term, b: Term) -> bool:
        return self.implies(a, b) and self.implies(b, a)

    def model(self, formula: Term) -> dict[str, int] | None:
        """An integer model of *formula*, or ``None`` if unsatisfiable."""
        expanded, nnf = self._normalize(formula)
        if self._enable_cache and self._sat_cache.get(nnf.nid) is False:
            self.stats.cache_hits += 1
            return None
        return self._decide(nnf, expanded)

    # -- decision procedure --------------------------------------------------

    def _decide(self, nnf: Term, expanded: Term) -> dict[str, int] | None:
        """One full run of the DPLL search on a normalized formula."""
        self.num_queries += 1
        self.stats.decisions += 1
        if self._deadline is not None and time.perf_counter() > self._deadline:
            self.stats.unknowns += 1
            if self._enable_cache and len(self._unknown_cache) < self._cache_size:
                self._unknown_cache[nnf.nid] = self._deadline_epoch
            raise SolverUnknown("solver deadline already expired")
        self._nodes_this_query = 0
        started = time.perf_counter()
        try:
            model = self._search_root(nnf)
        except (BranchBudgetExceeded, SolverUnknown) as exc:
            self.stats.unknowns += 1
            if self._enable_cache and len(self._unknown_cache) < self._cache_size:
                self._unknown_cache[nnf.nid] = self._deadline_epoch
            if isinstance(exc, SolverUnknown):
                raise
            raise SolverUnknown(f"budget exceeded for {expanded!r}") from exc
        finally:
            self.stats.time_seconds += time.perf_counter() - started
            self.stats.nodes_searched += self._nodes_this_query
            if self._nodes_this_query > self.stats.max_query_nodes:
                self.stats.max_query_nodes = self._nodes_this_query
        if model.__class__ is int:
            return None
        # Unconstrained variables (dropped by trivially-true constraints)
        # still need a value for the model to be total over the formula.
        for name in expanded.free_vars:
            model.setdefault(name, 0)
        if self._enable_cache:
            self._remember_model(model)
        return model

    # -- search -------------------------------------------------------------

    def _search_root(self, nnf: Term) -> dict[str, int] | int:
        """Compile *nnf* and search it from the root."""
        try:
            return self._search(_compile(nnf, self._items), 0, [], [], 0, 0, 0)
        finally:
            self._items.clear()

    def _search(
        self,
        item: _Item | None,
        tag: int,
        ors: list[tuple[tuple, int]],
        alternatives: list[tuple[tuple, int]],
        key: int,
        branch: int | None,
        depth: int,
    ) -> dict[str, int] | int:
        """One search node: a model, or the explanation of the failure.

        The node takes in *item* (a compiled formula, or ``None``) and
        the disjunctions and disequalities its parent deferred, *ors*
        (each Or's arguments) and *alternatives* (each disequality's
        side masks).  *key* is the mask of the parent's
        canonical constraint set, which the parent proved rationally
        feasible (the root's is empty); *branch* is the mask of the
        disequality side this node takes, ``None`` if that side is
        trivially false.  The node adds only what its own item and
        branch contribute, and probes feasibility only if that grew the
        set.  Every node costs one unit of the node budget, a trivially
        false disequality side included.

        *depth* counts the splits above this node.  *item* and each
        deferred entry carry the depth that introduced them, and a
        constraint is tagged with the depth at which it entered the key
        (read off :attr:`_path`).  A failed subtree returns its
        explanation, a bitmask over the depths whose choices it depends
        on: an infeasible core's tags, a false conjunct's tag, and at a
        failed split, its children's explanations minus their own depth
        plus the split formula's tag.  When a child's explanation leaves
        out the child's own depth, the side it took played no part in
        the failure, so every remaining side fails the same way and the
        split is abandoned (backjumping).  Integer-level failures explain
        with every depth, so above them the search stays chronological.
        """
        self._nodes_this_query += 1
        if self._nodes_this_query > self._node_budget:
            raise SolverUnknown("per-query node budget exceeded")
        if self._deadline is not None and self._nodes_this_query % 512 == 0:
            if time.perf_counter() > self._deadline:
                raise SolverUnknown("solver deadline exceeded")
        if branch is None:
            return 1 << depth
        # Take in conjuncts and literals first, delaying disjunctive
        # splits.  The order is that of a work stack holding the
        # deferred entries and then the item: the item comes off first,
        # then the deferred entries newest first, so each level reverses
        # them.
        grown = key | branch
        ors = ors[::-1]
        alternatives = alternatives[::-1]
        if item is not None:
            false, units, item_ors, item_splits = item
            if false:
                return 1 << tag
            grown |= units
            if item_ors:
                ors[:0] = [(f, tag) for f in item_ors]
            if item_splits:
                alternatives[:0] = [(f, tag) for f in item_splits]
        path = self._path
        del path[depth:]
        path.append(grown)
        if grown != key:
            # Feasibility pruning before splitting; an unchanged set is
            # the one the parent already proved feasible.
            if ors or alternatives:
                core = mask_core(grown)
                if core:
                    return self._explain(core, depth)
            key = grown
        child = depth + 1
        here = 1 << child
        if alternatives:
            sides, tag = alternatives.pop()
            why = 1 << tag
            for side in sides:
                hit = self._search(None, 0, ors, alternatives, key, side, child)
                if hit.__class__ is not int:
                    return hit
                if not hit & here:
                    return hit
                why |= hit ^ here
            return why
        if ors:
            args, tag = ors.pop()
            why = 1 << tag
            items = self._items
            for arg in args:
                hit = self._search(
                    _compile(arg, items), child, ors, [], key, 0, child
                )
                if hit.__class__ is not int:
                    return hit
                if not hit & here:
                    return hit
                why |= hit ^ here
            return why
        model = mask_integer_model(key, budget=self._branch_budget)
        if model is not None:
            return model
        core = mask_core(key)
        if not core:
            # rationally feasible but integer-infeasible: no core
            return here - 1
        return self._explain(core, depth)

    def _explain(self, core: int, depth: int) -> int:
        """The depths at which *core*'s constraints entered the key.

        ``_path[d]`` is the key at depth ``d`` of the current path; the
        keys grow down the path, so a constraint entered at the first
        depth whose key holds it: one AND per depth, until the whole
        core is placed.
        """
        why = 0
        for d, key in enumerate(self._path[: depth + 1]):
            found = core & key
            if found:
                why |= 1 << d
                core ^= found
                if not core:
                    break
        return why
