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

Elimination runs over integer rows, not :class:`LinearConstraint`
objects.  Each canonical constraint the solver meets gets a dense id in
a process-wide table (:func:`_row_id`), so the solver passes constraint
sets as int bitmasks (:func:`mask_core`, :func:`mask_integer_model`) and
the one elimination memo is keyed by mask.  The ``frozenset`` functions
are thin wrappers over the mask ones.
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
#: one compaction hook bounds both memos of this module (the id table
#: is not a memo and is never cleared; the solver's nid-keyed literal
#: memos are size-capped instead)
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
    names = sorted({v for c in constraints for v, _ in c.expr.coeffs} - {variable})
    column = {v: i for i, v in enumerate(names, 1)}
    column[variable] = 0
    rows = [_dense(c.expr.coeffs, c.expr.const, column) for c in constraints]
    projected = _project(rows, [0] * len(rows))
    if projected.__class__ is int:
        return None
    return [
        LinearConstraint(
            LinExpr(tuple((v, co) for v, co in zip(names, row) if co), row[-1])
        )
        for row in projected[0]
    ]


#: a canonical constraint as plain data: its coefficients as ``(name,
#: coeff)`` pairs in sorted-name order, and its constant — the two
#: fields of its :class:`LinExpr`, so rows sort as the constraints'
#: ``(coeffs, const)`` order
Row = tuple[tuple[tuple[str, int], ...], int]

#: row -> dense id, process-wide and append-only.  An id is never
#: reused or renumbered, so a mask of ids names the same set for the
#: life of the process: a kernel compaction drops memo entries keyed by
#: masks, never an id
_ids: dict[Row, int] = {}
#: id -> row
_rows: list[Row] = []


def _row_id(row: Row) -> int:
    """The dense id of a canonical row, assigned on first sight."""
    i = _ids.get(row)
    if i is None:
        i = _ids[row] = len(_rows)
        _rows.append(row)
    return i


def mask_of(key: Iterable[LinearConstraint]) -> int:
    """The bitmask of a :func:`canonical` set: one bit per constraint id."""
    mask = 0
    for c in key:
        mask |= 1 << _row_id((c.expr.coeffs, c.expr.const))
    return mask


def _bits(mask: int) -> list[int]:
    """The ids in *mask*, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def constraints_of(mask: int) -> frozenset[LinearConstraint]:
    """The set a mask names (the inverse of :func:`mask_of`)."""
    return frozenset(LinearConstraint(LinExpr(*_rows[i])) for i in _bits(mask))


def _dense(
    coeffs: tuple[tuple[str, int], ...], const: int, column: dict[str, int]
) -> tuple[int, ...]:
    """A row as a tuple of coefficients by *column*, then the constant."""
    out = [0] * (len(column) + 1)
    for v, co in coeffs:
        out[column[v]] = co
    out[-1] = const
    return tuple(out)


def _project(
    rows: Sequence[tuple[int, ...]], masks: Sequence[int]
) -> tuple[list[tuple[int, ...]], list[int]] | int:
    """Eliminate the first column: :func:`fm_project` over dense rows,
    with provenance.

    A row is a tuple of coefficients then the constant; the projected
    rows drop the first column.  ``masks[i]`` is the bitmask of input
    rows that ``rows[i]`` was derived from; each projected row carries
    the union of its two parents' masks (a duplicate keeps the mask it
    was first derived with).  Every projected row is gcd-tightened.  If
    a trivially false row arises, its mask is returned instead: those
    inputs alone are infeasible.
    """
    lowers: list[tuple[int, tuple[int, ...], int]] = []  # c·x >= -rest
    uppers: list[tuple[int, tuple[int, ...], int]] = []  # c·x <= -rest
    new: list[tuple[int, ...]] = []
    new_masks: list[int] = []
    for row, mask in zip(rows, masks):
        coeff = row[0]
        if coeff == 0:
            new.append(row[1:])
            new_masks.append(mask)
        elif coeff > 0:
            uppers.append((coeff, row[1:], mask))
        else:
            lowers.append((-coeff, row[1:], mask))
    for cu, ru, mu in uppers:
        for cl, rl, ml in lowers:
            # cu·x + ru <= 0 and -cl·x + rl <= 0
            # =>  cl·ru + cu·rl <= 0
            new.append(tuple([cl * a + cu * b for a, b in zip(ru, rl)]))
            new_masks.append(mu | ml)
    out: list[tuple[int, ...]] = []
    out_masks: list[int] = []
    seen: set[tuple[int, ...]] = set()
    for row, mask in zip(new, new_masks):
        g = math.gcd(*row[:-1])
        if g == 0:  # no variable left
            if row[-1] > 0:
                return mask
            continue
        if g > 1:  # see tighten: divide, rounding the constant up
            row = tuple([a // g for a in row[:-1]]) + (-(-row[-1] // g),)
        if row in seen:
            continue
        seen.add(row)
        out.append(row)
        out_masks.append(mask)
    return out, out_masks


def _bounds_for(
    rows: Sequence[tuple[int, ...]], values: Sequence[int | Fraction]
) -> tuple[int | Fraction | None, int | Fraction | None]:
    """Lower and upper bounds on the first column's variable, given
    *values* for the columns after it.

    Values and bounds stay ``int`` while they are integral, which is
    exact and much cheaper than ``Fraction`` arithmetic.
    """
    lo = hi = None
    for row in rows:
        coeff = row[0]
        if coeff == 0:
            continue
        value = row[-1]
        for co, x in zip(row[1:-1], values):
            if co:
                value += co * x
        if value.__class__ is int and value % coeff == 0:
            bound = -value // coeff
        else:
            bound = Fraction(-value, coeff)
        if coeff > 0:  # x <= bound
            if hi is None or bound < hi:
                hi = bound
        elif lo is None or bound > lo:  # x >= bound
            lo = bound
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
    model = _model_of(mask_of(key))
    return None if model is None else _fractions(model)


def _fractions(model: dict[str, int | Fraction]) -> dict[str, Fraction]:
    return {v: Fraction(q) for v, q in model.items()}


#: the one constraint-set memo: the mask of a canonical set -> its
#: rational model, or the mask of its infeasible core (an ``int``) when
#: it has none
_model_cache: dict[int, dict[str, int | Fraction] | int] = register_kernel_cache({})


def _outcome(key: int) -> dict[str, int | Fraction] | int:
    """The memoized elimination result for a mask (shared: callers must
    not mutate it).

    A mask names a set, not an order of it: elimination sorts its input
    (see :func:`_solve`), so the same set reached by DPLL branches that
    gathered it in different orders is one entry.
    """
    cached = _model_cache.get(key)
    if cached is None:
        cached = _solve([_rows[i] for i in _bits(key)])
        if cached.__class__ is not dict:
            core = 0
            for row in cached:
                core |= 1 << _ids[row]
            cached = core
        if len(_model_cache) < 500_000:
            _model_cache[key] = cached
    return cached


def _model_of(key: int) -> dict[str, int | Fraction] | None:
    """The memoized rational model of a mask, ``None`` if the set is
    infeasible.  Integral values are ``int``s."""
    outcome = _outcome(key)
    return outcome if outcome.__class__ is dict else None


def mask_core(key: int) -> int:
    """The DPLL pruning check on a mask: 0 if its set is rationally
    feasible, else the mask of an infeasible subset (memoized; see
    :func:`rational_core`)."""
    outcome = _outcome(key)
    return 0 if outcome.__class__ is dict else outcome


def _eliminate(
    cons: list[LinearConstraint],
) -> dict[str, Fraction] | None:
    """The rational model of a deduplicated, tightened list, or ``None``
    (uncached)."""
    outcome = _solve([(c.expr.coeffs, c.expr.const) for c in cons])
    return _fractions(outcome) if outcome.__class__ is dict else None


def _solve(rows: Iterable[Row]) -> dict[str, int | Fraction] | frozenset[Row]:
    """Eliminate every variable: a rational model, or an infeasible core.

    The rows (distinct, tightened, none trivial) are put in ``(coeffs,
    const)`` order first, made dense over the variables in sorted-name
    order, and each carries its own bit through :func:`_project`, which
    eliminates the variables in that order.  The model depends only on
    the set — every projection deduplicates, every bound is a min/max
    over the set and values are exact.  The core is the provenance mask
    of the first trivially false row derived, which depends on the
    order: the fixed order makes it a function of the set, never of hash
    or id order.  It is returned as the set of its input rows.
    """
    ordered = sorted(rows)
    names = sorted({v for coeffs, _ in ordered for v, _ in coeffs})
    column = {v: i for i, v in enumerate(names)}
    current = [_dense(coeffs, const, column) for coeffs, const in ordered]
    masks = [1 << i for i in range(len(current))]
    # eliminate in order, remembering each stage's rows
    stages: list[list[tuple[int, ...]]] = []
    for _ in names:
        stages.append(current)
        projected = _project(current, masks)
        if projected.__class__ is int:
            return frozenset(row for i, row in enumerate(ordered) if projected >> i & 1)
        current, masks = projected
    # 'current' now has no variables; _project already rejected falsities.
    model: dict[str, int | Fraction] = {}
    values: list[int | Fraction] = []
    for name, rows_at in zip(reversed(names), reversed(stages)):
        value = _pick_value(*_bounds_for(rows_at, values))
        values.insert(0, value)
        model[name] = value
    return model


def _pick_value(
    lo: int | Fraction | None, hi: int | Fraction | None
) -> int | Fraction:
    """A value within [lo, hi], preferring integers."""
    if lo is None and hi is None:
        return 0
    if lo is None:
        return math.floor(hi)
    if hi is None:
        return math.ceil(lo)
    if lo > hi:  # pragma: no cover - elimination guarantees consistency
        raise AssertionError("inconsistent bounds after FM elimination")
    ceil_lo = math.ceil(lo)
    if ceil_lo <= hi:
        return ceil_lo
    return Fraction(lo + hi) / 2


def rationally_feasible(key: frozenset[LinearConstraint]) -> bool:
    """Memoized rational feasibility of a :func:`canonical` set.

    Rational infeasibility soundly implies integer infeasibility.
    """
    return not mask_core(mask_of(key))


def rational_core(
    key: frozenset[LinearConstraint],
) -> frozenset[LinearConstraint] | None:
    """``None`` if the :func:`canonical` set is rationally feasible,
    else an infeasible subset of it (memoized).

    The core is built from Fourier–Motzkin provenance: the inputs that
    the trivially false constraint was derived from.  Those derivations
    use only the core, so the core alone is infeasible too — over the
    integers, since every step gcd-tightens, and by
    :func:`rationally_feasible` as well.
    """
    core = mask_core(mask_of(key))
    return constraints_of(core) if core else None


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
    return mask_integer_model(mask_of(key), budget=budget)


def integer_model_of(
    key: frozenset[LinearConstraint], *, budget: int = 400
) -> dict[str, int] | None:
    """:func:`integer_model` of a :func:`canonical` set."""
    return mask_integer_model(mask_of(key), budget=budget)


def mask_integer_model(key: int, *, budget: int = 400) -> dict[str, int] | None:
    """:func:`integer_model` of a mask (the DPLL leaf check):
    branch-and-bound over the memoized rational models."""
    nodes = 0

    def search(key: int) -> dict[str, int] | None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BranchBudgetExceeded()
        model = _model_of(key)
        if model is None:
            return None
        for v, q in model.items():
            if q.denominator != 1:
                break
        else:
            return {v: int(q) for v, q in model.items()}
        # x <= floor(q):   x - floor(q) <= 0
        hit = search(key | 1 << _row_id((((v, 1),), -math.floor(q))))
        if hit is not None:
            return hit
        # x >= ceil(q):   -x + ceil(q) <= 0
        return search(key | 1 << _row_id((((v, -1),), math.ceil(q))))

    return search(key)
