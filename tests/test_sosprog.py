import math

import numpy as np
import pytest

from switchcert.poly import Polynomial, parse_expression
from switchcert import sdp
from switchcert.sdp import solve
from switchcert.sosprog import (GramBasis, IllFormedIdentityError, ScalarTerm,
                                SosIdentity, SosProgram, SosUnknown,
                                UnknownLieTerm, UnknownTerm,
                                decode, encode,
                                gram_expand, identity_residual, monomial_basis)


def sos_membership(poly):
    identity = SosIdentity("m", poly.dimension, known=poly, terms=())
    return encode(SosProgram((identity,), ()))


class TestMonomialBasis:
    def test_full_degree_two(self):
        basis = monomial_basis(2, 0, 2)
        assert len(basis) == 6
        assert basis.monomials[0] == (0, 0)

    def test_homogeneous_degree_six(self):
        assert len(monomial_basis(2, 6, 6)) == 7

    def test_three_vars(self):
        assert len(monomial_basis(3, 0, 2)) == 10

    def test_binomial_law(self):
        for n in range(1, 7):
            for d in range(0, 9):
                assert len(monomial_basis(n, 0, d)) == math.comb(n + d, d)

    def test_sorted_and_distinct(self):
        basis = monomial_basis(3, 0, 3)
        assert len(set(basis.monomials)) == len(basis)
        degrees = [sum(m) for m in basis.monomials]
        assert degrees == sorted(degrees)


class TestGramExpand:
    def test_identity_gram(self):
        basis = monomial_basis(2, 1, 1)
        assert gram_expand(basis, np.eye(2)) == \
            parse_expression("x1^2 + x2^2", 2)

    def test_rank_one_square(self):
        basis = monomial_basis(2, 1, 1)
        R = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert gram_expand(basis, R) == parse_expression("(x1 - x2)^2", 2)

    def test_constant_block(self):
        basis = GramBasis(2, ((0, 0), (1, 0)))
        R = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert gram_expand(basis, R) == Polynomial.constant(2, 1.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            gram_expand(monomial_basis(2, 0, 1), np.eye(2))


class TestCoefficientMatching:
    def test_direct_matching_count(self):
        enc = sos_membership(parse_expression("x1^2 + x2^2", 2))
        assert enc.n_equalities == 3  # R11 = 1, R22 = 1, 2 R12 = 0

    def test_sublevel_identity_equality_count(self, published_v_affine_pair):
        sumsq = parse_expression("x1^2 + x2^2", 2)
        identity = SosIdentity(
            "lvl", 2, known=-published_v_affine_pair,
            terms=(ScalarTerm("gamma", Polynomial.constant(2, 1.0)),
                   UnknownTerm("q", sumsq - Polynomial.constant(2, 3.3))))
        enc = encode(SosProgram(
            (identity,), (SosUnknown("q", monomial_basis(2, 0, 1)),),
            scalars=("gamma",)))
        # one equality per distinct monomial of degree <= 4
        assert enc.n_equalities == math.comb(6, 2) == 15

    def test_zero_polynomial_rows_are_homogeneous(self):
        identity = SosIdentity(
            "z", 2, known=Polynomial.zero(2),
            terms=(UnknownTerm("s", Polynomial.constant(2, 1.0)),))
        enc = encode(SosProgram(
            (identity,), (SosUnknown("s", monomial_basis(2, 0, 1)),)))
        assert np.all(enc.problem.rhs == 0.0)

    def test_unmatchable_known_coefficient_raises(self):
        # x1^3 cannot appear in any Gram product of an even identity
        identity = SosIdentity(
            "bad", 2, known=parse_expression("x1^4 + x1^3", 2), terms=())
        with pytest.raises(IllFormedIdentityError):
            encode(SosProgram((identity,), ()))


class TestEncode:
    def test_single_membership_structure(self):
        enc = sos_membership(parse_expression("x1^2 + x2^2", 2))
        assert enc.problem.block_sizes == (2,)
        assert enc.problem.n_free == 0

    def test_objective_only_on_named_scalar(self):
        sumsq = parse_expression("x1^2 + x2^2", 2)
        identity = SosIdentity(
            "lvl", 2, known=-sumsq,
            terms=(ScalarTerm("gamma", Polynomial.constant(2, 1.0)),
                   UnknownTerm("q", sumsq - Polynomial.constant(2, 1.0))))
        enc = encode(SosProgram(
            (identity,), (SosUnknown("q", monomial_basis(2, 0, 0)),),
            scalars=("gamma",), objective={"gamma": 1.0}))
        assert list(enc.problem.obj_free) == [1.0]
        assert all(C is None for C in enc.problem.obj_blocks)

    def test_deterministic_bit_identical(self):
        def build():
            sumsq = parse_expression("x1^2 + x2^2", 2)
            identity = SosIdentity(
                "lvl", 2, known=-sumsq,
                terms=(UnknownTerm("q", sumsq - Polynomial.constant(2, 2.0)),))
            return encode(SosProgram(
                (identity,), (SosUnknown("q", monomial_basis(2, 0, 1)),)))

        a, b = build(), build()
        assert np.array_equal(a.problem.rhs, b.problem.rhs)
        assert a.problem.block_sizes == b.problem.block_sizes
        for ca, cb in zip(a.problem.entries, b.problem.entries):
            assert len(ca) == len(cb)
            for ea, eb in zip(ca, cb):
                assert ea.block == eb.block
                assert np.array_equal(ea.rows, eb.rows)
                assert np.array_equal(ea.cols, eb.cols)
                assert np.array_equal(ea.vals, eb.vals)

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            encode(SosProgram((), ()))

    def test_dimension_mismatch_rejected(self):
        a = SosIdentity("a", 2, parse_expression("x1^2", 2), ())
        b = SosIdentity("b", 3, parse_expression("x1^2", 3), ())
        with pytest.raises(ValueError):
            encode(SosProgram((a, b), ()))


class TestDecode:
    def test_round_trip_rank_one(self):
        target = parse_expression("(x1 - x2)^2", 2)
        enc = sos_membership(target)
        # at the default levels the residual is 3.5e-8; ask for 1e-10
        solution = sdp._solve(enc.problem, (1e-10, 1e-10), 0.0)
        recovered = gram_expand(enc.identity_bases["m"],
                                solution.blocks[enc.identity_blocks["m"]])
        assert (recovered - target).max_abs_coefficient() <= 1e-8

    def test_decode_rejects_infeasible(self):
        enc = sos_membership(parse_expression("x1^2 - x2^2", 2))
        solution = solve(enc.problem)
        assert solution.status == "infeasible"
        with pytest.raises(ValueError):
            decode(enc, solution)

    def test_nonnegative_but_not_sos_is_infeasible(self):
        motzkin = parse_expression(
            "x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1", 2)
        enc = sos_membership(motzkin)
        assert solve(enc.problem).status == "infeasible"

    def test_lie_term_round_trip(self):
        # unknown u with -grad(u).f certifiable for the stable node f = -x
        from switchcert.poly import PolynomialVectorField
        f = PolynomialVectorField(
            2, (parse_expression("-x1", 2), parse_expression("-x2", 2)))
        identity = SosIdentity(
            "decay", 2, known=Polynomial.zero(2),
            terms=(UnknownLieTerm("u", f, scale=-1.0),
                   UnknownTerm("u", Polynomial.constant(2, -1.0))))
        # -grad(u).f - u = 2u - u = u must be SOS: always true; check decode
        enc = encode(SosProgram(
            (identity,), (SosUnknown("u", monomial_basis(2, 1, 1)),)))
        solution = solve(enc.problem)
        decoded = decode(enc, solution)
        residual = identity_residual(identity, decoded, enc)
        assert residual.max_abs_coefficient() <= 1e-7


class TestInvariantSuite:
    def test_random_sos_instances_residual_and_psd(self):
        rng = np.random.default_rng(21)
        for trial in range(100):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            basis = monomial_basis(n, 0, d)
            G = rng.normal(size=(len(basis), len(basis)))
            target = gram_expand(basis, G @ G.T)
            enc = sos_membership(target)
            solution = solve(enc.problem)
            assert solution.feasible, f"trial {trial} not solved"
            decoded = decode(enc, solution)
            residual = identity_residual(
                SosIdentity("m", n, target, ()), decoded, enc)
            scale = 1.0 + target.max_abs_coefficient()
            assert residual.max_abs_coefficient() <= 1e-6 * scale
            for R in decoded.identity_grams.values():
                min_eig = float(np.linalg.eigvalsh(R)[0])
                assert min_eig >= -1e-7 * (1.0 + np.trace(R))
