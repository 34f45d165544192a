"""Pin the simplex pivot order through the optima it returns.

Every LP below has several optimal vertices (or an empty objective), so
which one comes back depends on the exact sequence of entering and
leaving variables under Bland's rule.  The expected assignments were
recorded from the ``Fraction``-tableau solver this code base used before
the integer tableau; any change to the pivot order (entering choice,
ratio-test tie-break, phase-1 artificial handling) shows up here.

The cases also cover the phase-1 edge paths: artificials driven out of
the basis at level 0, a redundant equality whose artificial stays basic
on an all-zero row, and a trivially-true inequality row that gets no
slack column.
"""

from fractions import Fraction

import pytest

from repro.poly.affine import AffineExpr, Constraint, var
from repro.poly.cache import clear_solver_caches
from repro.poly.ilp import IlpProblem

x, y, z = var("x"), var("y"), var("z")
v0, v1, v2 = var("v0"), var("v1"), var("v2")


def _box(*names, lo=0, hi=5):
    out = []
    for v in names:
        out += [Constraint.ge(v, lo), Constraint.le(v, hi)]
    return out


#: name -> (constraints, objective to minimise, integer)
CASES = {
    "face_min_sum": (
        [Constraint.ge(x + y, 2), Constraint.le(x - y, 3)] + _box(x, y),
        x + y,
        False,
    ),
    "face_max_sum": (
        [Constraint.le(x + y, 4), Constraint.ge(x * 2 - y, -2)] + _box(x, y),
        (x + y) * -1,
        False,
    ),
    "face_3d": (
        [
            Constraint.ge(x + y + z, 3),
            Constraint.ge(x - y, -1),
            Constraint.ge(y - z, -1),
        ]
        + _box(x, y, z),
        x + y + z,
        False,
    ),
    "feasibility_point": (
        [
            Constraint.ge(x * 2 + y * 3, 6),
            Constraint.le(x + y * 4, 12),
            Constraint.le(x - y, 2),
        ],
        AffineExpr.constant(0),
        False,
    ),
    "degenerate_vertex": (
        [
            Constraint.le(x + y * 2, 4),
            Constraint.le(x * 2 + y, 4),
            Constraint.le(x * 3 + y * 3, 8),
            Constraint.ge(x, 0),
            Constraint.ge(y, 0),
            Constraint.ge(x - y, 0),
            Constraint.ge(y - x, 0),
        ],
        (x + y) * -1,
        False,
    ),
    "free_vars_face": (
        [
            Constraint.ge(x * 2 - y * 3, -6),
            Constraint.ge(x * 3 + y * 2, 6),
            Constraint.le(x + y, 4),
        ],
        x * 3 + y * 2,
        False,
    ),
    "integer_ties": (
        [Constraint.ge(x * 2 + y * 3, 5)] + _box(x, y, hi=4),
        x + y,
        True,
    ),
    "integer_3d_ties": (
        [Constraint.ge(x * 2 + y * 3 + z * 5, 7), Constraint.le(x * 3 - z * 2, 4)]
        + _box(x, y, z, hi=3),
        x + y + z,
        True,
    ),
    "ratio_test_tie": (
        [
            Constraint.ge(v2 * 2 - v0 * 3, 0),
            Constraint.ge(v1 * 2 + v2 * 3, -3),
            Constraint.ge(v0 * -2 - v2, 0),
        ]
        + _box(v0, lo=-3, hi=1)
        + _box(v1, lo=-4, hi=3)
        + _box(v2, lo=-2, hi=6),
        v1 * Fraction(2, 3) + v2 * 3,
        False,
    ),
    "drive_out_opposed_pair": (
        [
            Constraint.ge(x - y, 0),
            Constraint.ge(y - x, 0),
            Constraint.ge(1 - x - y, 0),
            Constraint.ge(x - y, 0),
        ],
        x * Fraction(-2, 3) - Fraction(2, 3),
        False,
    ),
    "drive_out_degenerate_zero_rhs": (
        [
            Constraint.ge(x - y * 3, 0),
            Constraint.ge(y, 0),
            Constraint.ge(y * 3 - x * 2, 0),
        ],
        y * Fraction(2, 3) - x * 2,
        False,
    ),
    "redundant_equality_row": (
        [
            Constraint.eq(x * 2 + y * 3, 6),
            Constraint.eq(x * 2 + y * 3, 6),
            Constraint.ge(x, 0),
            Constraint.ge(y, 0),
        ],
        x - y,
        False,
    ),
    "trivially_true_row": (
        [
            Constraint.ge(AffineExpr.constant(3), 0),
            Constraint.ge(x + y, 1),
            Constraint.ge(x * 2 - y, -1),
            Constraint.le(x + y * 2, 6),
        ],
        x + y,
        False,
    ),
}

#: name -> (status, value, assignment), recorded from the Fraction solver.
EXPECTED = {
    "face_min_sum": ("optimal", "2", {"x": "0", "y": "2"}),
    "face_max_sum": ("optimal", "-4", {"x": "2/3", "y": "10/3"}),
    "face_3d": ("optimal", "3", {"x": "0", "y": "1", "z": "2"}),
    "feasibility_point": ("optimal", "0", {"x": "4", "y": "2"}),
    "degenerate_vertex": ("optimal", "-2", {"x": "1", "y": "1"}),
    "free_vars_face": ("optimal", "6", {"x": "6/13", "y": "30/13"}),
    "integer_ties": ("optimal", "2", {"x": "0", "y": "2"}),
    "integer_3d_ties": ("optimal", "2", {"x": "0", "y": "0", "z": "2"}),
    "ratio_test_tie": ("optimal", "-5", {"v0": "-3", "v1": "3/2", "v2": "-2"}),
    "drive_out_opposed_pair": ("optimal", "-1", {"x": "1/2", "y": "1/2"}),
    "drive_out_degenerate_zero_rhs": ("optimal", "0", {"x": "0", "y": "0"}),
    "redundant_equality_row": ("optimal", "-2", {"x": "0", "y": "2"}),
    "trivially_true_row": ("optimal", "1", {"x": "0", "y": "1"}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_optimum(name):
    constraints, objective, integer = CASES[name]
    clear_solver_caches()
    result = IlpProblem(constraints).minimize(objective, integer=integer)
    status, value, assignment = EXPECTED[name]
    assert result.status.value == status
    assert result.value == Fraction(value)
    assert result.assignment == {k: Fraction(v) for k, v in assignment.items()}
