"""Fourier–Motzkin elimination and integer model search.

The theory backend for conjunctions of linear constraints:

* :func:`fm_project` eliminates a variable over the rationals (used for
  quantifier elimination);
* :func:`rational_core` decides a constraint set by elimination and,
  when it is infeasible, names an infeasible subset of it: the solver
  prunes and backjumps on it (rational infeasibility implies integer
  infeasibility);
* :func:`rational_model` finds a rational model by full elimination and
  back-substitution;
* :func:`integer_model` finds an *integer* model via branch-and-bound on
  fractional coordinates.

Constraints are integer-tightened when normalized (dividing by the gcd of
the coefficients and rounding the constant up), which makes the
elimination considerably more complete over the integers, e.g.
``2x + 1 <= 0`` tightens to ``x + 1 <= 0``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .atoms import LinearConstraint, LinExpr
from .terms import register_kernel_cache


class BranchBudgetExceeded(Exception):
    """Raised when branch-and-bound exceeds its node budget."""


#: constraint-level, not term-level, but registered with the kernel so
#: one compaction hook bounds both constraint memos of this module (the
#: solver's nid-keyed literal memos are size-capped instead)
_tighten_cache: dict[LinearConstraint, LinearConstraint] = register_kernel_cache({})


def tighten(c: LinearConstraint) -> LinearConstraint:
    """Integer-tighten: divide by the gcd of the coefficients.

    ``Σ c_i·x_i + k <= 0`` with ``g = gcd(c_i)`` is equivalent (over the
    integers) to ``Σ (c_i/g)·x_i + ceil(k/g) <= 0``.
    """
    if not c.expr.coeffs:
        return c
    cached = _tighten_cache.get(c)
    if cached is not None:
        return cached
    g = math.gcd(*(abs(co) for _, co in c.expr.coeffs))
    if g <= 1:
        result = c
    else:
        coeffs = {v: co // g for v, co in c.expr.coeffs}
        const = math.ceil(Fraction(c.expr.const, g))
        result = LinearConstraint(LinExpr.of(coeffs, const))
    if len(_tighten_cache) < 500_000:
        _tighten_cache[c] = result
    return result


def _dedup(constraints: Iterable[LinearConstraint]) -> list[LinearConstraint] | None:
    """Tighten, deduplicate, and drop trivially-true constraints.

    Returns ``None`` if some constraint is trivially false.
    """
    out: list[LinearConstraint] = []
    seen: set[LinearConstraint] = set()
    for c in constraints:
        c = tighten(c)
        if c.trivially_false:
            return None
        if c.trivially_true or c in seen:
            continue
        seen.add(c)
        out.append(c)
    return out


def canonical(
    constraints: Iterable[LinearConstraint],
) -> frozenset[LinearConstraint] | None:
    """The canonical set of a conjunction, or ``None`` if trivially false.

    Canonical means tightened, with trivially-true constraints dropped:
    the form :func:`rational_core` takes.  The union of two
    canonical sets is the canonical set of the joined conjunction, so
    the solver builds each branch's set from per-literal pieces.
    """
    cons = _dedup(constraints)
    return None if cons is None else frozenset(cons)


def fm_project(
    constraints: Sequence[LinearConstraint], variable: str
) -> list[LinearConstraint] | None:
    """Eliminate *variable*: rational Fourier–Motzkin projection.

    Returns the projected constraint set, or ``None`` if a trivially
    false constraint arises (the input is rationally — hence integrally —
    infeasible).
    """
    projected = _project(constraints, [0] * len(constraints), variable)
    return None if projected.__class__ is int else projected[0]


def _project(
    constraints: Sequence[LinearConstraint], masks: Sequence[int], variable: str
) -> tuple[list[LinearConstraint], list[int]] | int:
    """:func:`fm_project` with provenance.

    ``masks[i]`` is the bitmask of input constraints that
    ``constraints[i]`` was derived from; each projected constraint
    carries the union of its two parents' masks (a duplicate keeps the
    mask it was first derived with).  If a trivially false constraint
    arises, its mask is returned instead: those inputs alone are
    infeasible.
    """
    lowers: list[tuple[int, LinExpr, int]] = []  # c·x >= -rest  (coeff c < 0)
    uppers: list[tuple[int, LinExpr, int]] = []  # c·x <= -rest  (coeff c > 0)
    new: list[LinearConstraint] = []
    new_masks: list[int] = []
    for c, mask in zip(constraints, masks):
        coeffs = c.expr.coeffs
        coeff = 0
        for v, co in coeffs:
            if v == variable:
                coeff = co
                break
        if coeff == 0:
            new.append(c)
            new_masks.append(mask)
            continue
        # dropping one key from a sorted tuple preserves the sort order
        remainder = LinExpr(
            tuple(item for item in coeffs if item[0] != variable), c.expr.const
        )
        if coeff > 0:
            uppers.append((coeff, remainder, mask))
        else:
            lowers.append((-coeff, remainder, mask))
    for cu, ru, mu in uppers:
        for cl, rl, ml in lowers:
            # cu·x + ru <= 0 and -cl·x + rl <= 0
            # =>  cl·ru + cu·rl <= 0
            new.append(LinearConstraint(ru.combine(cl, rl, cu)))
            new_masks.append(mu | ml)
    out: list[LinearConstraint] = []
    out_masks: list[int] = []
    seen: set[LinearConstraint] = set()
    for c, mask in zip(new, new_masks):
        c = tighten(c)
        if c.trivially_false:
            return mask
        if c.trivially_true or c in seen:
            continue
        seen.add(c)
        out.append(c)
        out_masks.append(mask)
    return out, out_masks


def _bounds_for(
    variable: str,
    constraints: Sequence[LinearConstraint],
    env: dict[str, Fraction],
) -> tuple[Fraction | None, Fraction | None]:
    """Lower and upper bounds on *variable* given values for all others."""
    lo: Fraction | None = None
    hi: Fraction | None = None
    for c in constraints:
        coeffs = c.expr.coeffs
        coeff = 0
        for v, co in coeffs:
            if v == variable:
                coeff = co
                break
        if coeff == 0:
            continue
        value = Fraction(c.expr.const)
        for v, co in coeffs:
            if v != variable:
                value += co * env[v]
        bound = Fraction(-value, coeff)
        if coeff > 0:  # x <= bound
            hi = bound if hi is None else min(hi, bound)
        else:  # x >= bound
            lo = bound if lo is None else max(lo, bound)
    return lo, hi


def rational_model(
    constraints: Sequence[LinearConstraint],
) -> dict[str, Fraction] | None:
    """A rational model of the *integer-tightened* conjunction.

    Because every projection step gcd-tightens (see :func:`tighten`),
    this is the relaxation with integer cutting planes: all integer
    solutions are preserved, but some purely-rational solutions may be
    cut off (e.g. ``x == y && x + y == 1`` is reported infeasible).
    ``None`` therefore soundly implies integer infeasibility, which is
    the only way the solver consumes this function.
    """
    key = canonical(constraints)
    if key is None:
        return None
    model = _model_of(key)
    return None if model is None else dict(model)


_MISS = object()
#: the one constraint-set memo: canonical set -> rational model, or the
#: set's infeasible core (a ``frozenset``) when it has none
_model_cache: dict[
    frozenset[LinearConstraint],
    dict[str, Fraction] | frozenset[LinearConstraint],
] = register_kernel_cache({})


def _outcome(
    key: frozenset[LinearConstraint],
) -> dict[str, Fraction] | frozenset[LinearConstraint]:
    """The memoized elimination result for a canonical set (shared:
    callers must not mutate it).

    Keyed on the set, not on any order of it: elimination sorts its
    input (see :func:`_solve`), so the same set reached by DPLL branches
    that gathered it in different orders is one entry.
    """
    cached = _model_cache.get(key, _MISS)
    if cached is _MISS:
        cached = _solve(list(key))
        if len(_model_cache) < 500_000:
            _model_cache[key] = cached
    return cached


def _model_of(key: frozenset[LinearConstraint]) -> dict[str, Fraction] | None:
    """The memoized rational model of a canonical set, ``None`` if it is
    infeasible."""
    outcome = _outcome(key)
    return outcome if outcome.__class__ is dict else None


def _order(c: LinearConstraint) -> tuple:
    return c.expr.coeffs, c.expr.const


def _eliminate(
    cons: list[LinearConstraint],
) -> dict[str, Fraction] | None:
    """The rational model of a deduplicated, tightened list, or ``None``."""
    outcome = _solve(cons)
    return outcome if outcome.__class__ is dict else None


def _solve(
    cons: list[LinearConstraint],
) -> dict[str, Fraction] | frozenset[LinearConstraint]:
    """Eliminate every variable: a rational model, or an infeasible core.

    The inputs are put in ``(coeffs, const)`` order first, and each
    carries its own bit through :func:`_project`.  The model depends only
    on the set — variables go in sorted order, every projection
    deduplicates, every bound is a min/max over the set and values are
    exact ``Fraction``s.  The core is the provenance mask of the first
    trivially false constraint derived, which depends on the order: the
    fixed order makes it a function of the set, never of hash order.
    """
    ordered = sorted(cons, key=_order)
    masks = [1 << i for i in range(len(ordered))]
    variables = sorted({v for c in ordered for v, _ in c.expr.coeffs})
    # eliminate in order, remembering each stage's constraint set
    stages: list[tuple[str, list[LinearConstraint]]] = []
    current = ordered
    for v in variables:
        stages.append((v, current))
        projected = _project(current, masks, v)
        if projected.__class__ is int:
            return frozenset(c for i, c in enumerate(ordered) if projected >> i & 1)
        current, masks = projected
    # 'current' now has no variables; _project already rejected falsities.
    env: dict[str, Fraction] = {}
    for v, cons_at in reversed(stages):
        lo, hi = _bounds_for(v, cons_at, env)
        env[v] = _pick_value(lo, hi)
    return env


def _pick_value(lo: Fraction | None, hi: Fraction | None) -> Fraction:
    """A value within [lo, hi], preferring integers."""
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return Fraction(math.floor(hi))
    if hi is None:
        return Fraction(math.ceil(lo))
    if lo > hi:  # pragma: no cover - elimination guarantees consistency
        raise AssertionError("inconsistent bounds after FM elimination")
    ceil_lo = Fraction(math.ceil(lo))
    if ceil_lo <= hi:
        return ceil_lo
    return (lo + hi) / 2


def rationally_feasible(key: frozenset[LinearConstraint]) -> bool:
    """Memoized rational feasibility of a :func:`canonical` set.

    Rational infeasibility soundly implies integer infeasibility.
    """
    return _outcome(key).__class__ is dict


def rational_core(
    key: frozenset[LinearConstraint],
) -> frozenset[LinearConstraint] | None:
    """The DPLL pruning check: ``None`` if the :func:`canonical` set is
    rationally feasible, else an infeasible subset of it (memoized).

    The core is built from Fourier–Motzkin provenance: the inputs that
    the trivially false constraint was derived from.  Those derivations
    use only the core, so the core alone is infeasible too — over the
    integers, since every step gcd-tightens, and by
    :func:`rationally_feasible` as well.
    """
    outcome = _outcome(key)
    return None if outcome.__class__ is dict else outcome


def integer_model(
    constraints: Iterable[LinearConstraint], *, budget: int = 400
) -> dict[str, int] | None:
    """An integer model of the conjunction, or ``None`` if infeasible.

    Raises :class:`BranchBudgetExceeded` if the node budget runs out
    before a verdict (callers treat this as "unknown").
    """
    key = canonical(constraints)
    if key is None:
        return None
    return integer_model_of(key, budget=budget)


def integer_model_of(
    key: frozenset[LinearConstraint], *, budget: int = 400
) -> dict[str, int] | None:
    """:func:`integer_model` of a :func:`canonical` set (the DPLL leaf
    check): branch-and-bound over the memoized rational models."""
    nodes = 0

    def search(key: frozenset[LinearConstraint]) -> dict[str, int] | None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BranchBudgetExceeded()
        model = _model_of(key)
        if model is None:
            return None
        fractional = [(v, q) for v, q in model.items() if q.denominator != 1]
        if not fractional:
            return {v: int(q) for v, q in model.items()}
        v, q = fractional[0]
        floor_q, ceil_q = math.floor(q), math.ceil(q)
        # x <= floor(q):   x - floor(q) <= 0
        hit = search(key | {LinearConstraint(LinExpr.of({v: 1}, -floor_q))})
        if hit is not None:
            return hit
        # x >= ceil(q):   -x + ceil(q) <= 0
        return search(key | {LinearConstraint(LinExpr.of({v: -1}, ceil_q))})

    return search(key)
