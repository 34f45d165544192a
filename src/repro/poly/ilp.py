"""Exact linear and integer-linear programming.

The polyhedral layer needs four decision procedures:

- rational feasibility / optimisation  (Pluto-style scheduling LPs),
- integer feasibility                  (emptiness of integer sets),
- integer optimisation                 (per-dimension bounds, footprints),
- lexicographic minima                 (AST generation, sampling).

All are provided here by a dense two-phase simplex (Bland's rule, hence
guaranteed termination) with branch-and-bound layered on top for
integrality.  The tableau is fraction-free, as in lrs and isl's
``isl_tab``: Python ints over one common denominator (the determinant of
the current basis), updated by Edmonds' integer pivot, with the
reduced-cost row pivoted alongside the constraint rows.  Only the
returned optimum is a :class:`fractions.Fraction`."""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import resilience
from repro.core.errors import SolverBudgetError
from repro.poly.affine import AffineExpr, Constraint
from repro.tools import faultinject


class IlpStatus(Enum):
    """Outcome of an (I)LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class IlpResult:
    """Solution record: status, objective value and variable assignment."""

    __slots__ = ("status", "value", "assignment")

    def __init__(
        self,
        status: IlpStatus,
        value: Optional[Fraction] = None,
        assignment: Optional[Dict[str, Fraction]] = None,
    ):
        self.status = status
        self.value = value
        self.assignment = assignment or {}

    def __repr__(self) -> str:
        return f"IlpResult({self.status.value}, {self.value}, {self.assignment})"


class IlpProblem:
    """A conjunction of affine constraints over named variables.

    The problem owns a list of :class:`Constraint`; variables are discovered
    from the constraints and the objective.  ``minimize``/``maximize`` solve
    either the rational relaxation (``integer=False``) or the integer
    program.
    """

    # Branch-and-bound node budget; polyhedral problems here are small, so
    # hitting this indicates a bug rather than genuine hardness.
    MAX_BB_NODES = 20000

    def __init__(self, constraints: Optional[Sequence[Constraint]] = None):
        self.constraints: List[Constraint] = list(constraints or [])

    def add_constraint(self, constraint: Constraint) -> None:
        """Append one constraint."""
        self.constraints.append(constraint)

    def add_constraints(self, constraints: Sequence[Constraint]) -> None:
        """Append several constraints."""
        self.constraints.extend(constraints)

    def variables(self) -> List[str]:
        """All variable names referenced by the constraints, sorted."""
        names = set()
        for c in self.constraints:
            names.update(c.variables())
        return sorted(names)

    # -- public solving interface -------------------------------------------

    def minimize(self, objective: AffineExpr, integer: bool = True) -> IlpResult:
        """Minimise ``objective`` subject to the constraints.

        An integer presolve substitutes away unit-coefficient equalities
        (very common in dependence relations) and pure interval systems are
        solved directly; the simplex/branch-and-bound only sees the residual.

        Solves are memoized in :data:`repro.poly.cache.ILP_CACHE`: the key
        preserves constraint order, so a hit is bit-identical to a fresh
        solve (constraints normalise on construction, making the key a
        canonical form of the system).
        """
        from repro.poly.cache import ILP_CACHE

        key = (tuple(self.constraints), objective, integer)
        cached = ILP_CACHE.lookup(key)
        if cached is not None:
            return IlpResult(cached.status, cached.value, dict(cached.assignment))
        result = self._minimize_uncached(objective, integer)
        ILP_CACHE.store(key, result)
        return IlpResult(result.status, result.value, dict(result.assignment))

    def _minimize_uncached(self, objective: AffineExpr, integer: bool) -> IlpResult:
        faultinject.fire("ilp.solve")
        constraints, back_subst = _presolve_system(self.constraints, integer)
        objective = _apply_back_substitutions(objective, back_subst)
        return _solve_presolved(constraints, objective, back_subst, integer)

    def batch_minimize(
        self, objectives: Sequence[AffineExpr], integer: bool = True
    ) -> List[IlpResult]:
        """Minimise several objectives over the *same* constraint system.

        The equality-elimination presolve depends only on the constraints,
        so it runs at most once for the whole batch instead of once per
        objective — dependence analysis poses 2·rank bounds queries per
        relation and this is where that repetition is collapsed.  Each
        objective still gets its own :data:`~repro.poly.cache.ILP_CACHE`
        entry under exactly the key :meth:`minimize` would use, so batched
        and one-at-a-time solves are interchangeable (bit-identical
        results, shared cache lines).
        """
        from repro.poly.cache import ILP_CACHE

        cons_key = tuple(self.constraints)
        presolved: Optional[
            Tuple[List[Constraint], List[Tuple[str, AffineExpr]]]
        ] = None
        out: List[IlpResult] = []
        for objective in objectives:
            key = (cons_key, objective, integer)
            cached = ILP_CACHE.lookup(key)
            if cached is not None:
                out.append(
                    IlpResult(cached.status, cached.value, dict(cached.assignment))
                )
                continue
            if presolved is None:
                presolved = _presolve_system(self.constraints, integer)
            constraints, back_subst = presolved
            reduced = _apply_back_substitutions(objective, back_subst)
            result = _solve_presolved(constraints, reduced, back_subst, integer)
            ILP_CACHE.store(key, result)
            out.append(IlpResult(result.status, result.value, dict(result.assignment)))
        return out

    def maximize(self, objective: AffineExpr, integer: bool = True) -> IlpResult:
        """Maximise ``objective`` subject to the constraints."""
        result = self.minimize(objective * -1, integer=integer)
        if result.status is IlpStatus.OPTIMAL:
            return IlpResult(result.status, -result.value, result.assignment)
        return result

    def is_feasible(self, integer: bool = True) -> bool:
        """Check whether any (integer) point satisfies all constraints."""
        result = self.minimize(AffineExpr.constant(0), integer=integer)
        return result.status is IlpStatus.OPTIMAL

    def sample(self) -> Optional[Dict[str, int]]:
        """Return one integer point, or ``None`` when infeasible."""
        point = self.lexmin(self.variables())
        return point

    def lexmin(self, order: Sequence[str]) -> Optional[Dict[str, int]]:
        """Lexicographic integer minimum along ``order``.

        Dimensions unbounded below make the lexmin undefined; this raises
        ``ValueError`` in that case (polyhedral domains here are bounded).
        """
        extra: List[Constraint] = []
        point: Dict[str, int] = {}
        for name in order:
            problem = IlpProblem(self.constraints + extra)
            result = problem.minimize(AffineExpr.variable(name), integer=True)
            if result.status is IlpStatus.INFEASIBLE:
                return None
            if result.status is IlpStatus.UNBOUNDED:
                raise ValueError(f"lexmin: dimension {name!r} unbounded below")
            value = int(result.value)
            point[name] = value
            extra.append(Constraint.eq(AffineExpr.variable(name), value))
        return point

    def lexmax(self, order: Sequence[str]) -> Optional[Dict[str, int]]:
        """Lexicographic integer maximum along ``order``."""
        extra: List[Constraint] = []
        point: Dict[str, int] = {}
        for name in order:
            problem = IlpProblem(self.constraints + extra)
            result = problem.maximize(AffineExpr.variable(name), integer=True)
            if result.status is IlpStatus.INFEASIBLE:
                return None
            if result.status is IlpStatus.UNBOUNDED:
                raise ValueError(f"lexmax: dimension {name!r} unbounded above")
            value = int(result.value)
            point[name] = value
            extra.append(Constraint.eq(AffineExpr.variable(name), value))
        return point


# -- presolve -----------------------------------------------------------------


def _presolve_system(
    constraints: Sequence[Constraint], integer: bool
) -> Tuple[List[Constraint], List[Tuple[str, AffineExpr]]]:
    """Substitute away equalities with a +-1 coefficient variable.

    Unit-coefficient substitution is exact over the integers, so the
    reduced problem has the same optimum.  Rational problems are returned
    unchanged: a substituted row is re-normalised, which tightens its
    constant to an integer bound.  Returns the reduced system and
    the back-substitution list.  The elimination order depends only on
    the constraints, never on any objective — :meth:`IlpProblem.batch_minimize`
    relies on this to run the presolve once for a whole batch of
    objectives over one system.
    """
    current = list(constraints)
    back: List[Tuple[str, AffineExpr]] = []
    changed = integer
    guard = 0
    while changed and guard < 256:
        guard += 1
        changed = False
        for i, c in enumerate(current):
            if not c.is_equality:
                continue
            target = None
            for name in c.expr.coeffs:
                if abs(c.expr.coeffs[name]) == 1:
                    target = name
                    break
            if target is None:
                continue
            a = c.expr.coeff(target)
            rest = c.expr - AffineExpr({target: a})
            replacement = rest * (-1 / a)
            back.append((target, replacement))
            env = {target: replacement}
            next_cons = []
            for j, other in enumerate(current):
                if j == i:
                    continue
                if other.expr.coeff(target) != 0:
                    other = other.substitute(env)
                if other.is_trivially_true():
                    continue
                next_cons.append(other)
            current = next_cons
            changed = True
            break
    return current, back


def _apply_back_substitutions(
    objective: AffineExpr, back: List[Tuple[str, AffineExpr]]
) -> AffineExpr:
    """Rewrite an objective through the eliminations, in elimination order.

    A replacement recorded at step *k* may mention variables eliminated at
    steps > *k* (they were still live when it was derived), so forward
    application reproduces exactly the incremental substitution the
    presolve loop used to perform inline.
    """
    for name, replacement in back:
        if objective.coeff(name) != 0:
            objective = objective.substitute({name: replacement})
    return objective


def _solve_presolved(
    constraints: Sequence[Constraint],
    objective: AffineExpr,
    back_subst: List[Tuple[str, AffineExpr]],
    integer: bool,
) -> IlpResult:
    """Solve a presolved system and back-substitute the assignment."""
    names = sorted(
        {v for c in constraints for v in c.variables()}
        | set(objective.variables())
    )
    interval = _interval_solve(constraints, objective, names, integer)
    if interval is not None:
        result = interval
    elif integer:
        result = _branch_and_bound(constraints, objective, names)
    else:
        result = _simplex_solve(constraints, objective, names)
    if result.status is IlpStatus.OPTIMAL and back_subst:
        assignment = dict(result.assignment)
        for name, expr in reversed(back_subst):
            # A variable left only in an eliminated equality is free: 0.
            for free in expr.variables():
                assignment.setdefault(free, Fraction(0))
            assignment[name] = expr.evaluate(assignment)
        result = IlpResult(result.status, result.value, assignment)
    return result


def _interval_solve(
    constraints: Sequence[Constraint],
    objective: AffineExpr,
    names: Sequence[str],
    integer: bool,
) -> Optional[IlpResult]:
    """Direct solution when every constraint bounds a single variable.

    Returns ``None`` when the system is not interval-shaped.  Constraint
    normalisation guarantees single-variable inequalities have coefficient
    +-1 with an integral bound, so the interval optimum is exact for both
    the integer and the rational problem.
    """
    lo: Dict[str, Fraction] = {}
    hi: Dict[str, Fraction] = {}
    for c in constraints:
        vars_in = c.variables()
        if len(vars_in) == 0:
            if c.is_trivially_false():
                return IlpResult(IlpStatus.INFEASIBLE)
            continue
        if len(vars_in) > 1:
            return None
        name = vars_in[0]
        a = c.expr.coeff(name)
        bound = -c.expr.const / a
        if c.is_equality:
            if integer and bound.denominator != 1:
                return IlpResult(IlpStatus.INFEASIBLE)
            lo[name] = max(lo.get(name, bound), bound)
            hi[name] = min(hi.get(name, bound), bound)
        elif a > 0:  # name >= bound
            lo[name] = max(lo.get(name, bound), bound)
        else:  # name <= bound
            hi[name] = min(hi.get(name, bound), bound)

    assignment: Dict[str, Fraction] = {}
    for name in names:
        low = lo.get(name)
        high = hi.get(name)
        if integer:
            low = None if low is None else Fraction(-(-low.numerator // low.denominator))
            high = None if high is None else Fraction(high.numerator // high.denominator)
        if low is not None and high is not None and low > high:
            return IlpResult(IlpStatus.INFEASIBLE)
        coeff = objective.coeff(name)
        if coeff > 0:
            pick = low
        elif coeff < 0:
            pick = high
        else:
            pick = low if low is not None else (high if high is not None else Fraction(0))
        if pick is None:
            return IlpResult(IlpStatus.UNBOUNDED)
        assignment[name] = pick
    value = objective.evaluate(assignment)
    return IlpResult(IlpStatus.OPTIMAL, value, assignment)


# -- simplex core ------------------------------------------------------------
#
# The rational tableau is ``rows / D`` with ``D > 0``, so every int has the
# sign of the entry it stands for.  The last row holds the reduced costs
# and, in its right-hand side, ``-D * objective``.


def _simplex_solve(
    constraints: Sequence[Constraint], objective: AffineExpr, names: Sequence[str]
) -> IlpResult:
    """Solve the rational LP ``min objective s.t. constraints``.

    Free variables are split as ``v = v+ - v-``; inequalities get slack
    variables; feasibility is established by a phase-1 with artificial
    variables.  Bland's rule prevents cycling.
    """
    for c in constraints:
        if c.is_trivially_false():
            return IlpResult(IlpStatus.INFEASIBLE)
    names = list(names)
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    kept = [c for c in constraints if not c.is_trivially_true()]

    # Column layout: [v0+, v0-, v1+, v1-, ..., slacks..., artificials..., rhs]
    n_rows = len(kept)
    used_cols = 2 * n + sum(1 for c in kept if not c.is_equality)
    slack = 2 * n
    tableau: List[List[int]] = []
    for i, c in enumerate(kept):
        row = [0] * (used_cols + n_rows + 1)
        for name, coeff in c.expr.coeffs.items():
            j = 2 * index[name]
            row[j] = int(coeff)
            row[j + 1] = -int(coeff)
        if not c.is_equality:
            # expr >= 0  <=>  expr - s = 0, s >= 0  <=>  a.x - s = b
            row[slack] = -1
            slack += 1
        row[-1] = -int(c.expr.const)
        if row[-1] < 0:
            row = [-x for x in row]
        row[used_cols + i] = 1
        tableau.append(row)

    # Phase 1: minimise the sum of the artificial variables, which start
    # out basic.  Their reduced costs are 0; a structural column's is
    # minus its column sum.
    basis = [used_cols + i for i in range(n_rows)]
    tableau.append(
        [-sum(col) for col in zip(*tableau)] if tableau else [0] * (used_cols + 1)
    )
    tableau[-1][used_cols:-1] = [0] * n_rows
    status, denom = _simplex_iterate(tableau, basis, 1, used_cols + n_rows)
    if status is IlpStatus.UNBOUNDED:  # pragma: no cover - phase 1 is bounded
        raise RuntimeError("phase-1 LP cannot be unbounded")
    if tableau[-1][-1] != 0:
        return IlpResult(IlpStatus.INFEASIBLE)
    tableau.pop()
    denom = _drive_out_artificials(tableau, basis, used_cols, denom)

    # Phase 2: the objective (scaled to integers) over the structural
    # columns.  Artificials still basic sit on all-zero rows (redundant
    # equalities); they are dropped with the artificial columns.
    scale = lcm(*(coeff.denominator for coeff in objective.coeffs.values()))
    cost = [0] * used_cols
    for name, coeff in objective.coeffs.items():
        j = 2 * index[name]
        cost[j] = int(coeff * scale)
        cost[j + 1] = -cost[j]
    keep = [i for i, col in enumerate(basis) if col < used_cols]
    basis = [basis[i] for i in keep]
    tableau = [tableau[i][:used_cols] + tableau[i][-1:] for i in keep]
    reduced = [c * denom for c in cost] + [0]
    for row, col in zip(tableau, basis):
        cb = cost[col]
        if cb:
            reduced = [r - cb * x for r, x in zip(reduced, row)]
    tableau.append(reduced)
    status, denom = _simplex_iterate(tableau, basis, denom, used_cols)
    if status is IlpStatus.UNBOUNDED:
        return IlpResult(IlpStatus.UNBOUNDED)

    assignment: Dict[str, Fraction] = {name: Fraction(0) for name in names}
    for row, col in zip(tableau, basis):
        if col < 2 * n:
            name = names[col // 2]
            sign = 1 if col % 2 == 0 else -1
            assignment[name] += sign * Fraction(row[-1], denom)
    value = objective.evaluate(assignment)
    return IlpResult(IlpStatus.OPTIMAL, value, assignment)


def _simplex_iterate(
    tableau: List[List[int]], basis: List[int], denom: int, allowed_cols: int
) -> Tuple[IlpStatus, int]:
    """Pivot by Bland's rule until optimal or unbounded; returns the
    status and the new common denominator."""
    n_rows = len(basis)
    while True:
        reduced = tableau[-1]
        enter = next((j for j in range(allowed_cols) if reduced[j] < 0), None)
        if enter is None:
            return IlpStatus.OPTIMAL, denom
        # Ratio test by cross-multiplication (the denominators cancel),
        # Bland tie-break on basis variable index.
        leave = None
        for i in range(n_rows):
            a = tableau[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = tableau[i][-1] * tableau[leave][enter]
                rhs = tableau[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return IlpStatus.UNBOUNDED, denom
        denom = _pivot(tableau, basis, leave, enter, denom)


def _pivot(
    tableau: List[List[int]], basis: List[int], row: int, col: int, denom: int
) -> int:
    """Integer (Edmonds) pivot; returns the new common denominator.

    ``M'[i][j] = (M[i][j] * p - M[i][col] * M[row][j]) // denom`` divides
    exactly, the pivot row keeps its entries and ``p`` becomes the
    denominator.  A negative ``p`` negates the pivot row first (which
    negates every new entry), keeping the denominator positive.
    """
    prow = tableau[row]
    p = prow[col]
    if p < 0:
        p = -p
        prow = tableau[row] = [-y for y in prow]
    for i, trow in enumerate(tableau):
        if i == row:
            continue
        f = trow[col]
        if f:
            tableau[i] = [(x * p - f * y) // denom for x, y in zip(trow, prow)]
        elif p != denom:
            tableau[i] = [x * p // denom for x in trow]
    basis[row] = col
    return p


def _drive_out_artificials(
    tableau: List[List[int]], basis: List[int], used_cols: int, denom: int
) -> int:
    """Pivot basic artificial variables out of the basis when possible;
    returns the new common denominator."""
    for i in range(len(basis)):
        if basis[i] >= used_cols:
            col = next((j for j in range(used_cols) if tableau[i][j] != 0), None)
            if col is not None:
                denom = _pivot(tableau, basis, i, col, denom)
            # Otherwise the row is all-zero over structural columns
            # (redundant constraint); phase 2 drops it.
    return denom


# -- branch and bound ---------------------------------------------------------


def _branch_and_bound(
    constraints: Sequence[Constraint], objective: AffineExpr, names: Sequence[str]
) -> IlpResult:
    """Integer minimisation by LP-relaxation branch and bound."""
    best: Optional[IlpResult] = None
    stack: List[List[Constraint]] = [list(constraints)]
    nodes = 0
    max_nodes = resilience.solver_node_budget(IlpProblem.MAX_BB_NODES)
    while stack:
        nodes += 1
        if nodes > max_nodes:
            raise SolverBudgetError(
                f"branch-and-bound node budget exhausted ({max_nodes} nodes)",
                stage=resilience.active_stage(),
            )
        if nodes % 64 == 0:
            resilience.check_deadline()
        current = stack.pop()
        relax = _simplex_solve(current, objective, names)
        if relax.status is IlpStatus.INFEASIBLE:
            continue
        if relax.status is IlpStatus.UNBOUNDED:
            # The integer problem over a rationally unbounded region is
            # unbounded too whenever it is feasible at all; report it.
            return IlpResult(IlpStatus.UNBOUNDED)
        if best is not None and relax.value >= best.value:
            continue  # Bound: cannot improve.
        frac_name = next(
            (
                name
                for name in names
                if relax.assignment.get(name, Fraction(0)).denominator != 1
            ),
            None,
        )
        if frac_name is None:
            if best is None or relax.value < best.value:
                best = IlpResult(
                    IlpStatus.OPTIMAL,
                    relax.value,
                    {k: v for k, v in relax.assignment.items()},
                )
            continue
        value = relax.assignment[frac_name]
        floor_v = value.numerator // value.denominator
        below = current + [Constraint.le(AffineExpr.variable(frac_name), floor_v)]
        above = current + [Constraint.ge(AffineExpr.variable(frac_name), floor_v + 1)]
        stack.append(below)
        stack.append(above)
    if best is None:
        return IlpResult(IlpStatus.INFEASIBLE)
    return best
