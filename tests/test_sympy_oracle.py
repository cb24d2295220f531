"""sympy as an external oracle for the exact linear algebra core, and for
the kernel vectors that the sweep oracles in `tests/oracles.py` take."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npoly import exactmath as xm
from npoly.errors import DegenerateMatrix

from oracles import kernel_vector
from test_elimination_oracles import matrices, primitive, square_int

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def from_sympy(vector):
    return tuple(Fraction(int(x.p), int(x.q)) for x in vector)


@given(square_int)
@settings(max_examples=100, deadline=None)
def test_determinant(rows):
    assert xm.determinant(xm.IntMatrix.from_rows(rows)) == to_sympy(rows).det()


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank(rows):
    assert xm.rational_rank(rows) == to_sympy(rows).rank()


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_kernel(rows):
    basis = to_sympy(rows).nullspace()
    k = kernel_vector(rows)
    if len(basis) != 1:
        assert k is None
    else:
        assert primitive(k) == primitive(from_sympy(basis[0]))


@given(square_int, st.lists(st.integers(-6, 6), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_solve_unique(rows, rhs):
    u = rhs[: len(rows)]
    m = to_sympy(rows)
    if m.det() == 0:
        with pytest.raises(DegenerateMatrix):
            xm.solve_unique(xm.IntMatrix.from_rows(rows), u)
    else:
        expected = m.solve(sympy.Matrix(u))
        assert xm.solve_unique(xm.IntMatrix.from_rows(rows), u) == from_sympy(expected)


@given(square_int)
@settings(max_examples=100, deadline=None)
def test_snf_diagonal(rows):
    m = xm.IntMatrix.from_rows(rows)
    if xm.determinant(m) == 0:
        return
    d = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    assert xm.snf(m).diag == tuple(abs(d[i, i]) for i in range(m.rows))


@given(square_int)
@settings(max_examples=100, deadline=None)
def test_adjugate(rows):
    m = to_sympy(rows)
    if m.det() == 0:
        # the Gauss-Jordan route needs a pivot in every column
        with pytest.raises(DegenerateMatrix):
            xm.adjugate(rows)
    else:
        adj, det = xm.adjugate(rows)
        assert det == m.det()
        assert sympy.Matrix(adj) == m.adjugate()
