"""Differential test of the exact (I)LP solver against scipy/HiGHS.

scipy is not a dependency of the package, so the module is skipped where
it is missing.  Each example is a random 3-5-variable system of dense
rows, some of them equalities, over variables that may be negative
(every variable is split into ``v+ - v-``); in rational mode some
variables have no bounds at all.  Integer examples keep every variable
boxed, so the integer problem is bounded and HiGHS's verdict is
unambiguous.

Checks: the statuses agree, the optimal values agree within float
tolerance, and the exact assignment satisfies every constraint and
evaluates to the returned value with no rounding at all.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.poly.affine import AffineExpr, Constraint
from repro.poly.ilp import IlpProblem, IlpStatus

optimize = pytest.importorskip("scipy.optimize")

_COEFF = st.integers(-4, 4)
_FRACTION = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def _systems(draw, integer):
    n = draw(st.integers(3, 5))
    names = [f"x{i}" for i in range(n)]
    constraints = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = {v: draw(_COEFF) for v in names}  # dense row
        const = draw(st.integers(-8, 8))
        constraints.append(
            Constraint(AffineExpr(coeffs, const), is_equality=draw(st.booleans()))
        )
    for v in names:
        if not integer and draw(st.booleans()):
            continue  # free: unbounded in both directions
        lo = draw(st.integers(-5, 2))
        hi = lo + draw(st.integers(0, 6))
        constraints += [
            Constraint.ge(AffineExpr.variable(v), lo),
            Constraint.le(AffineExpr.variable(v), hi),
        ]
    objective = AffineExpr({v: draw(_FRACTION) for v in names}, draw(_FRACTION))
    return names, constraints, objective


def _scipy_solve(names, constraints, objective, integer):
    """(status, value) from HiGHS for ``min objective`` over the same
    (already normalised) constraints."""
    index = {v: i for i, v in enumerate(names)}
    rows, lower, upper = [], [], []
    for c in constraints:
        row = np.zeros(len(names))
        for v, a in c.expr.coeffs.items():
            row[index[v]] = float(a)
        rows.append(row)
        lower.append(-float(c.expr.const))
        upper.append(-float(c.expr.const) if c.is_equality else np.inf)

    def solve(cost):
        return optimize.milp(
            cost,
            integrality=np.full(len(names), 1 if integer else 0),
            bounds=optimize.Bounds(-np.inf, np.inf),
            constraints=[optimize.LinearConstraint(np.array(rows), lower, upper)],
            options={"mip_rel_gap": 0.0},
        )

    res = solve(np.array([float(objective.coeff(v)) for v in names]))
    if res.status == 0:
        return IlpStatus.OPTIMAL, res.fun + float(objective.const)
    if res.status == 3:
        return IlpStatus.UNBOUNDED, None
    assert res.status == 2, res.message
    # HiGHS's presolve reports "infeasible or unbounded" as infeasible; a
    # feasible system with the objective dropped means unbounded.
    if solve(np.zeros(len(names))).status == 0:
        return IlpStatus.UNBOUNDED, None
    return IlpStatus.INFEASIBLE, None


def _check(names, constraints, objective, integer):
    ours = IlpProblem(constraints).minimize(objective, integer=integer)
    status, value = _scipy_solve(names, constraints, objective, integer)
    assert ours.status is status
    if status is not IlpStatus.OPTIMAL:
        return
    assert float(ours.value) == pytest.approx(value, rel=1e-7, abs=1e-7)
    point = ours.assignment
    assert all(c.satisfied(point) for c in constraints)
    assert objective.evaluate(point) == ours.value
    if integer:
        assert all(Fraction(x).denominator == 1 for x in point.values())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_systems(integer=False))
def test_rational_lp_matches_highs(system):
    _check(*system, integer=False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_systems(integer=True))
def test_integer_lp_matches_highs(system):
    _check(*system, integer=True)
