"""Unit tests for the exact linear algebra core."""

from fractions import Fraction

import pytest

from npoly import exactmath as xm
from npoly.errors import DegenerateInput, DegenerateMatrix
from oracles import lp_min_sum

FIVE_DIM = xm.IntMatrix.from_rows(
    [
        [1, 1, 1, 1, 1],
        [0, 0, 1, 1, 1],
        [0, 1, 0, 1, 1],
        [0, 1, 1, 0, 1],
        [0, 1, 1, 1, 0],
    ]
)


def four_dim_matrix(big_d, k):
    return xm.IntMatrix.from_rows(
        [
            [big_d, big_d, big_d, big_d],
            [0, 1, 1, 0],
            [0, 0, 1, -1],
            [0, 0, 0, big_d**k],
        ]
    )


def det_cofactor(m: xm.IntMatrix) -> int:
    """Independent determinant oracle by cofactor expansion."""
    n = m.rows
    if n == 1:
        return m.entries[0][0]
    total = 0
    for j in range(n):
        minor = xm.IntMatrix.from_rows(
            [[row[c] for c in range(n) if c != j] for row in m.entries[1:]]
        )
        term = m.entries[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


class TestDeterminant:
    def test_identity(self):
        assert xm.determinant(xm.IntMatrix.identity(5)) == 1

    def test_five_dim_abs_three(self):
        assert abs(xm.determinant(FIVE_DIM)) == 3

    def test_four_dim_family(self):
        assert abs(xm.determinant(four_dim_matrix(3, 2))) == 27
        assert abs(xm.determinant(four_dim_matrix(2, 2))) == 8

    def test_against_cofactor_oracle(self):
        import random

        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = xm.IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            )
            assert xm.determinant(m) == det_cofactor(m)

    def test_rejects_rectangular(self):
        with pytest.raises(DegenerateMatrix):
            xm.determinant(xm.IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


class TestSnf:
    def test_identity(self):
        assert xm.snf(xm.IntMatrix.identity(5)).diag == (1, 1, 1, 1, 1)

    def test_five_dim(self):
        assert xm.snf(FIVE_DIM).diag == (1, 1, 1, 1, 3)

    def test_four_dim_family(self):
        res = xm.snf(four_dim_matrix(2, 2))
        assert res.diag[-1] == 4
        assert abs(xm.determinant(four_dim_matrix(2, 2))) == 8

    def test_reconstruction_and_unimodularity(self):
        import random

        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = xm.IntMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            )
            if xm.determinant(m) == 0:
                continue
            res = xm.snf(m)
            product = res.P.mul(m).mul(res.Q)
            assert product.entries == tuple(
                tuple(res.diag[i] * int(i == j) for j in range(n)) for i in range(n)
            )
            assert abs(xm.determinant(res.P)) == 1
            assert abs(xm.determinant(res.Q)) == 1
            prod = 1
            for d in res.diag:
                prod *= d
            assert prod == abs(xm.determinant(m))

    def test_rejects_singular(self):
        with pytest.raises(DegenerateMatrix):
            xm.snf(xm.IntMatrix.from_rows([[1, 2], [2, 4]]))

    @pytest.mark.parametrize(
        "diagonal, message",
        [
            # (2, 1) breaks the chain; (1, 2) keeps it but P*M*Q no longer matches
            ([[2, 0], [0, 1]], "divisibility"),
            ([[1, 0], [0, 2]], "reconstruct"),
        ],
    )
    def test_wrong_smith_diagonal_is_refused(self, monkeypatch, diagonal, message):
        # explicit checks, not asserts: this must also raise under python -O
        engine = xm.smith_engine

        def wrong(entries):
            p, _, q, rank = engine(entries)
            return p, diagonal, q, rank

        monkeypatch.setattr(xm, "smith_engine", wrong)
        with pytest.raises(AssertionError, match=message):
            xm.snf(xm.IntMatrix.identity(2))


class TestSolveUnique:
    def test_identity(self):
        m = xm.IntMatrix.identity(2)
        assert xm.solve_unique(m, (2, 5)) == (Fraction(2), Fraction(5))

    def test_five_dim_fundamental_points(self):
        r = xm.solve_unique(FIVE_DIM, (2, 1, 1, 1, 1))
        assert r == (Fraction(2, 3),) + (Fraction(1, 3),) * 4
        r2 = xm.solve_unique(FIVE_DIM, (3, 2, 2, 2, 2))
        assert r2 == (Fraction(1, 3),) + (Fraction(2, 3),) * 4

    def test_round_trip(self):
        import random

        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = xm.IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            if xm.determinant(m) == 0:
                continue
            r = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n))
            u = m.mul_vector(r)
            assert xm.solve_unique(m, u) == r

    def test_rejects_singular(self):
        with pytest.raises(DegenerateMatrix):
            xm.solve_unique(xm.IntMatrix.from_rows([[1, 1], [1, 1]]), (1, 2))


class TestLpMinSum:
    KLOOSTERMAN = [(1, 0), (0, 1), (-1, -1)]

    def test_origin(self):
        assert lp_min_sum(self.KLOOSTERMAN, (0, 0)) == 0

    def test_generator_itself(self):
        assert lp_min_sum(self.KLOOSTERMAN, (-1, -1)) == 1

    def test_interior_point(self):
        # (1,1) = 1*(1,0) + 1*(0,1) is the cheapest representation
        assert lp_min_sum(self.KLOOSTERMAN, (1, 1)) == 2

    def test_infeasible(self):
        assert lp_min_sum([(2,)], (-1,)) is None

    def test_rank_deficient_target_off_span(self):
        assert lp_min_sum([(1, 0)], (0, 1)) is None

    def test_empty_generators(self):
        with pytest.raises(DegenerateInput):
            lp_min_sum([], (0, 0))

    def test_homogeneity_on_integer_multiples(self):
        import random

        rng = random.Random(5)
        gens = self.KLOOSTERMAN
        for _ in range(30):
            u = (rng.randint(-3, 3), rng.randint(-3, 3))
            base = lp_min_sum(gens, u)
            for c in range(6):
                scaled = lp_min_sum(gens, (c * u[0], c * u[1]))
                if base is None:
                    assert scaled is None or c == 0
                else:
                    assert scaled == c * base


def test_solve_unique_preserves_exactness():
    # denominators stay exact through elimination
    m = xm.IntMatrix.from_rows([[2, 3], [5, 7]])
    r = xm.solve_unique(m, (1, 0))
    assert r == (Fraction(-7), Fraction(5))


def test_unimodular_inverse():
    m = xm.IntMatrix.from_rows([[2, 1], [1, 1]])
    inv = xm.unimodular_inverse(m)
    assert m.mul(inv).entries == xm.IntMatrix.identity(2).entries
