import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (SYSTEMS, V_AFFINE_PAIR, encode_posed,
                      identity_residual, same_row)
from switchcert.poly import (Polynomial, PolynomialVectorField, grlex_key,
                             lie_derivative, mono_mul, parse_expression)
from switchcert import sdp, sosprog
from switchcert.certify import (_multiplier_degree, _sublevel_program,
                                build_absorbing_program)
from switchcert.cli import load_system
from switchcert.sdp import SdpSolution, solve
from switchcert.sosprog import (GramBasis, IllFormedIdentityError, ScalarTerm,
                                SosIdentity, SosProgram, SosUnknown,
                                UnknownLieTerm, UnknownTerm,
                                decode, encode, gram_basis, gram_expand,
                                invariant_parities, monomial_basis)


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
        # 2 R12 = 0 reads 0 = 0 on a Gram matrix invariant under x1 -> -x1
        assert enc.problem.m == 2

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
        # no block objective, which would add a free scalar of its own
        assert enc.problem.n_free == 1
        assert list(enc.problem.obj_free) == [1.0]

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


class TestGramTable:
    """encode names each SDP block once, by its unknown or identity."""

    @pytest.mark.parametrize("unknowns, identities, scalars, name", [
        ((), ("m", "m"), (), "identity 'm'"),
        (("u",), ("u",), (), "identity 'u'"),
        ((), ("m",), ("t", "t"), "scalar 't'")],
        ids=["two-identities", "unknown-and-identity", "two-scalars"])
    def test_name_declared_twice_rejected(self, unknowns, identities,
                                          scalars, name):
        # two identities named m once kept both Gram blocks, but decode
        # returned only the second one's Gram matrix
        knowns = ["x1^2 + x2^2", "x1^4 + x2^4"]
        program = SosProgram(
            tuple(SosIdentity(ident, 2, parse_expression(knowns[k], 2))
                  for k, ident in enumerate(identities)),
            tuple(SosUnknown(u, monomial_basis(2, 1, 1)) for u in unknowns),
            scalars=scalars)
        with pytest.raises(ValueError, match=f"{name} is declared twice"):
            encode(program)

    def test_term_naming_an_identity_is_not_declared(self):
        a = SosIdentity("a", 2, parse_expression("x1^2", 2))
        b = SosIdentity("b", 2, parse_expression("x2^2", 2),
                        (UnknownTerm("a", Polynomial.constant(2, 1.0)),))
        with pytest.raises(ValueError, match="unknown 'a' not declared"):
            encode(SosProgram((a, b), ()))

    def test_grams_re_expand_every_identity(self):
        program = _row_check_program("affine-decay")
        enc = encode(program)
        decoded = decode(enc, solve(enc.problem))
        assert list(decoded.grams) == list(enc.blocks)
        assert list(decoded.polynomials) == [u.name for u in program.unknowns]
        for name, block in enc.blocks.items():
            assert decoded.grams[name].shape == (len(enc.bases[block]),) * 2
        for ident in program.identities:
            residual = identity_residual(ident, decoded, enc)
            scale = 1.0 + ident.known.max_abs_coefficient()
            assert residual.max_abs_coefficient() <= 1e-6 * scale


class TestDecode:
    def test_round_trip_rank_one(self, monkeypatch):
        target = parse_expression("(x1 - x2)^2", 2)
        enc = sos_membership(target)
        # at the default TOL the residual is 3.5e-8; ask for 1e-10
        monkeypatch.setattr(sdp, "TOL", 1e-10)
        solution = sdp._solve(enc.problem)
        block = enc.blocks["m"]
        recovered = gram_expand(enc.bases[block], solution.blocks[block])
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
            for R in decoded.grams.values():
                min_eig = float(np.linalg.eigvalsh(R)[0])
                assert min_eig >= -1e-7 * (1.0 + np.trace(R))


def row_products(encoding):
    """Per SDP row, the Gram products chi_i chi_j of its entries."""
    bases = encoding.bases
    return [{mono_mul(bases[ent.block].monomials[i],
                      bases[ent.block].monomials[j])
             for ent in row for i, j in zip(ent.rows, ent.cols)}
            for row in encoding.problem.entries]


def lie_program(field, known, u_basis):
    """known - grad(u) . field is SOS, for an unknown SOS u."""
    identity = SosIdentity("decay", field.dimension, known=known,
                           terms=(UnknownLieTerm("u", field, scale=-1.0),))
    return SosProgram((identity,), (SosUnknown("u", u_basis),))


class TestSignSymmetry:
    def test_field_odd_in_x1_only_drops_only_x1_odd_rows(self):
        # x -> (-x1, x2) maps the field to (-f1, f2); no sign of x2 does
        field = PolynomialVectorField(2, (parse_expression("x1", 2),
                                          parse_expression("x2 + x1^2", 2)))
        program = lie_program(field, parse_expression("x1^2 + x2^4", 2),
                              monomial_basis(2, 1, 2))
        assert invariant_parities(program) == (0b10,)
        reduced, posed = encode(program), encode_posed(program)
        assert reduced.n_equalities == posed.n_equalities == posed.problem.m
        parities = [{mono[0] % 2 for mono in products}
                    for products in row_products(posed)]
        assert all(len(p) == 1 for p in parities)
        kept = [j for j, p in enumerate(parities) if p == {0}]
        assert 0 < len(kept) == reduced.problem.m < posed.problem.m
        assert all(same_row(reduced.problem, k, posed.problem, j)
                   for k, j in enumerate(kept))
        # rows odd in x2 are posed and solved
        assert any(mono[1] % 2 for products in row_products(reduced)
                   for mono in products)

    def test_no_symmetry_keeps_every_row(self):
        # the constant terms of the field fix the sign of each variable
        field = PolynomialVectorField(2, (parse_expression("x1 - 1", 2),
                                          parse_expression("x2 + 1", 2)))
        program = lie_program(field, parse_expression("x1^2 + x2^2", 2),
                              monomial_basis(2, 1, 1))
        assert len(invariant_parities(program)) == 2
        reduced, posed = encode(program), encode_posed(program)
        assert reduced.problem.m == reduced.n_equalities == posed.problem.m
        assert all(same_row(reduced.problem, j, posed.problem, j)
                   for j in range(posed.problem.m))

    @pytest.mark.parametrize("known, weight", [("x1^2 + x1*x2", "1"),
                                               ("x1^2", "x1*x2")],
                             ids=["known", "scalar"])
    def test_dropped_row_with_data_is_an_internal_error(
            self, monkeypatch, known, weight):
        # a span that misses a parity of the data would drop a row that
        # the data needs
        monkeypatch.setattr(sosprog, "invariant_parities", lambda program: ())
        identity = SosIdentity(
            "m", 2, known=parse_expression(known, 2),
            terms=(ScalarTerm("t", parse_expression(weight, 2)),))
        with pytest.raises(RuntimeError, match="invariant parities"):
            encode(SosProgram((identity,), (), scalars=("t",)))

    def test_decode_zeroes_cross_class_entries(self):
        # x1 and x2 lie in different classes, so R12 is averaged away
        enc = sos_membership(parse_expression("x1^2 + x2^2", 2))
        R = np.array([[1.0, 0.5], [0.5, 2.0]])
        solution = SdpSolution(
            status=sdp.STATUS_OPTIMAL, blocks=[R], free=np.zeros(0),
            objective=0.0, dual_objective=0.0, primal_residual=0.0,
            min_eigenvalues=[0.0], iterations=1)
        gram = decode(enc, solution).grams["m"]
        assert np.array_equal(gram, np.diag([1.0, 2.0]))
        assert np.array_equal(R, [[1.0, 0.5], [0.5, 2.0]])

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(field_coefs=st.lists(st.integers(-2, 2), min_size=12,
                                max_size=12),
           poly_coefs=st.lists(st.integers(-2, 2), min_size=8, max_size=8))
    def test_reduced_and_posed_agree_on_membership(self, field_coefs,
                                                   poly_coefs):
        # an odd field and an even polynomial: x -> -x is a symmetry
        odd = monomial_basis(2, 1, 1).monomials \
            + monomial_basis(2, 3, 3).monomials
        even = monomial_basis(2, 2, 2).monomials \
            + monomial_basis(2, 4, 4).monomials
        field = PolynomialVectorField(2, tuple(
            Polynomial(2, dict(zip(odd, field_coefs[k::2])))
            for k in range(2)))
        # a positive diagonal makes some of the draws SOS
        known = Polynomial(2, dict(zip(even, poly_coefs))) \
            + parse_expression("2*x1^2 + 2*x2^2 + 2*x1^4 + 2*x2^4", 2)
        program = lie_program(field, known, monomial_basis(2, 1, 1))
        reduced, posed = encode(program), encode_posed(program)
        assert reduced.problem.m <= posed.problem.m == reduced.n_equalities
        assert solve(reduced.problem).status == solve(posed.problem).status


def _sign(s, mono):
    """The factor by which x -> s*x multiplies a monomial."""
    return math.prod(s[k] ** e for k, e in enumerate(mono))


def _symmetries(program):
    """Every sign vector s that fixes the program's data, found by trying
    each one: known polynomials and weights are fixed, and component k of
    each Lie term's field maps to s_k times itself."""
    def fixes(s, ident):
        for term in ident.terms:
            if isinstance(term, UnknownLieTerm):
                if any(_sign(s, m) != s[k]
                       for k, comp in enumerate(term.field.components)
                       for m in comp.terms):
                    return False
            elif any(_sign(s, m) != 1 for m in term.weight.terms):
                return False
        return all(_sign(s, m) == 1 for m in ident.known.terms)

    n = program.identities[0].dimension
    return [s for s in itertools.product((1, -1), repeat=n)
            if all(fixes(s, ident) for ident in program.identities)]


def _row_check_program(name):
    V = parse_expression(V_AFFINE_PAIR, 2)
    if name == "affine-decay":
        system = load_system(str(SYSTEMS / "affine_pair.sys"))
        return build_absorbing_program(system, 2, 1.0, 4, 3.3)[0]
    if name == "cubic-decay":
        system = load_system(str(SYSTEMS / "cubic_3d_pair.sys"))
        return build_absorbing_program(system, 2, 1.0, 6, 0.0)[0]
    if name == "vdp-decay":
        system = load_system(str(SYSTEMS / "vdp_relay_pair.sys"))
        return build_absorbing_program(system, 1, 1e-4, 6, 14.0)[0]
    if name == "sublevel":
        return _sublevel_program(V, 3.3, _multiplier_degree(4))
    if name == "sublevel-fixed-gamma":
        return _sublevel_program(V, 3.3, _multiplier_degree(4), gamma=8725.0)
    if name == "membership":
        # the shape of certify's SOS membership check
        envelope = gram_expand(monomial_basis(2, 2, 2), np.eye(3))
        identity = SosIdentity("membership", 2, known=V * (1.0 / 964.1),
                               terms=(ScalarTerm("slack", envelope),))
        return SosProgram((identity,), (), scalars=("slack",),
                          objective={"slack": 1.0})
    # three terms on one unknown: its Gram entries reach a monomial from
    # each term, and their coefficients add up; on the degree-2 monomials
    # they cancel exactly (1 - 2 + 1), so those leave the support
    field = PolynomialVectorField(2, (parse_expression("-x1 + x2^3", 2),
                                      parse_expression("-x2 - x1^3", 2)))
    identity = SosIdentity(
        "shared", 2, known=parse_expression("x1^6 + x2^6 + 3*x1^2*x2^2", 2),
        terms=(UnknownTerm("u", parse_expression("1 + x1^2", 2)),
               UnknownLieTerm("u", field, scale=-0.5),
               UnknownTerm("u", parse_expression("0.25*x2^2 - 2", 2))))
    return SosProgram((identity,), (SosUnknown("u", monomial_basis(2, 1, 2)),))


class TestRowCoefficients:
    """Each emitted row against the coefficient of its monomial in
    known + sum(terms) - chi^T R chi at random Gram matrices and scalars,
    expanded with gram_expand and lie_derivative, not through encode."""

    @pytest.mark.parametrize("name", [
        "affine-decay", "cubic-decay", "vdp-decay", "sublevel",
        "sublevel-fixed-gamma", "membership", "shared-unknown"])
    def test_rows_match_expanded_identities(self, name):
        program = _row_check_program(name)
        enc = encode(program)
        problem = enc.problem
        rng = np.random.default_rng(7)

        def symmetric(size):
            G = rng.normal(size=(size, size))
            return G + G.T

        X = [symmetric(s) for s in problem.block_sizes]
        u = rng.normal(size=problem.n_free)
        grams = {name: X[b] for name, b in enc.blocks.items()}
        values = {name: u[k] for name, k in enc.scalar_index.items()}
        symmetries = _symmetries(program)

        j = posed = 0
        for ident in program.identities:
            expr = Polynomial.zero(ident.dimension)
            for term in ident.terms:
                if isinstance(term, ScalarTerm):
                    expr = expr + term.weight * values[term.scalar]
                    continue
                U = gram_expand(enc.bases[enc.blocks[term.unknown]],
                                grams[term.unknown])
                if isinstance(term, UnknownTerm):
                    expr = expr + term.weight * U
                else:
                    expr = expr + term.scale * lie_derivative(U, term.field)
            # the identity's basis spans the degrees its terms reach
            degrees = [sum(m) for m in expr.terms.keys() | ident.known.terms]
            basis = enc.bases[enc.blocks[ident.name]]
            assert basis == gram_basis(ident.dimension, min(degrees),
                                       max(degrees))
            expr = expr - gram_expand(basis, grams[ident.name])
            # random data leave no coefficient at 0 by chance
            posed += len(expr.terms)
            kept = sorted((m for m in expr.terms
                           if all(_sign(s, m) == 1 for s in symmetries)),
                          key=grlex_key)
            scale = 1.0 + expr.max_abs_coefficient()
            for mono in kept:
                value = sum(
                    float(np.sum(np.where(ent.rows == ent.cols, 1.0, 2.0)
                                 * ent.vals * X[ent.block][ent.rows,
                                                           ent.cols]))
                    for ent in problem.entries[j])
                idx, vals = problem.free_rows[j]
                value += float(vals @ u[idx])
                assert problem.rhs[j] == -ident.known.coefficient(mono)
                assert value == pytest.approx(expr.coefficient(mono),
                                              abs=1e-12 * scale)
                j += 1
        assert j == problem.m
        assert posed == enc.n_equalities
