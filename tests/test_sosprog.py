import itertools
import math
import re
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (SYSTEMS, V_AFFINE_PAIR, encode_posed,
                      identity_residual, same_row)
from switchcert.poly import (Polynomial, PolynomialVectorField, grlex_key,
                             lie_derivative, mono_mul, parse_expression)
from switchcert import sdp, sosprog
from switchcert.certify import (SwitchedSystem, _multiplier_degree,
                                _sublevel_program, build_absorbing_program)
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

    @pytest.mark.parametrize("n, lo, hi", [(2, 0, 2), (3, 1, 4), (2, 2, 6)])
    def test_same_terms_and_bits_as_pair_by_pair(self, n, lo, hi):
        # each product's weights added in pair order from 0.0, and the
        # products listed in order of first appearance, as one dict update
        # per pair did
        basis = monomial_basis(n, lo, hi)
        G = np.random.default_rng(hi).normal(size=(len(basis), len(basis)))
        R = G + G.T
        terms: dict = {}
        monos = basis.monomials
        for i in range(len(monos)):
            for j in range(i, len(monos)):
                weight = R[i, j] if i == j else 2.0 * R[i, j]
                mono = mono_mul(monos[i], monos[j])
                terms[mono] = terms.get(mono, 0.0) + weight
        got = gram_expand(basis, R).terms
        assert list(got) == list(terms)
        assert np.array(list(got.values())).tobytes() == \
            np.array(list(terms.values())).tobytes()


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

    @pytest.mark.parametrize("n", [3, 8, 70])
    def test_parity_checks_agree_with_reduce(self, n):
        # a monomial passes the checks exactly when _reduce sends its
        # parities to 0, and two share a label exactly when _reduce sends
        # them to one representative; 70 variables take masks past 64 bits
        rng = np.random.default_rng(n)
        span: list = []
        for mask in rng.integers(0, 2, size=(n // 2 + 1, n)).tolist():
            mask = sosprog._reduce(sum(b << k for k, b in enumerate(mask)),
                                   span)
            if mask:
                span = sorted(span + [mask], reverse=True)
        span = tuple(span)
        basis = GramBasis(n, tuple(map(tuple, np.unique(rng.integers(
            0, 4, size=(40, n)), axis=0).tolist())))
        reduced = [sosprog._reduce(sosprog._parity(m), span)
                   for m in basis.monomials]
        exps = np.array(basis.monomials)
        passes = ~(exps @ sosprog._parity_checks(span, n) & 1).any(1)
        assert passes.tolist() == [r == 0 for r in reduced]
        labels = sosprog.parity_classes(basis, span)
        assert (labels[:, None] == labels[None, :]).tolist() == \
            [[a == b for b in reduced] for a in reduced]

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


def _reference_encode(program):
    """encode as it was built one Gram product at a time: each product of
    each term expanded as a Polynomial and each row aggregated entry by
    entry.  Returns the problem's rows as (rhs, ((block, rows, cols,
    vals), ...), (free indices, free values)) and the encoding's tables."""
    n = program.identities[0].dimension
    scalar_index = {name: k for k, name in enumerate(program.scalars)}
    unknowns = {u.name: (b, u.basis) for b, u in enumerate(program.unknowns)}

    def pairs(basis):
        monos = basis.monomials
        return [(i, j, mono_mul(monos[i], monos[j]))
                for i in range(len(monos)) for j in range(i, len(monos))]

    def identity_rows(identity, block):
        sums = defaultdict(lambda: (defaultdict(dict), {}))
        products: dict = {}
        for term in identity.terms:
            if isinstance(term, ScalarTerm):
                k = scalar_index[term.scalar]
                for mono, c in term.weight.terms.items():
                    free = sums[mono][1]
                    free[k] = free.get(k, 0.0) + c
                continue
            ublock, basis = unknowns[term.unknown]
            if ublock not in products:
                products[ublock] = {}
                for i, j, product in pairs(basis):
                    products[ublock].setdefault(product, []).append((i, j))
            for product in products[ublock]:
                if isinstance(term, UnknownTerm):
                    g = term.weight * Polynomial.monomial(product)
                else:
                    g = term.scale * lie_derivative(
                        Polynomial.monomial(product), term.field)
                for mono, c in g.terms.items():
                    weights = sums[mono][0][ublock]
                    weights[product] = weights.get(product, 0.0) + c
        rows: dict = {}
        for mono, (blocks, free) in sums.items():
            entries = {b: [(i, j, c) for product, c in weights.items() if c
                           for i, j in products[b][product]]
                       for b, weights in blocks.items()}
            entries = {b: trips for b, trips in entries.items() if trips}
            if entries or free:
                rows[mono] = (entries, free)
        degrees = [sum(m) for m in rows.keys() | identity.known.terms] or [0]
        basis = gram_basis(n, min(degrees), max(degrees))
        for i, j, mono in pairs(basis):
            rows.setdefault(mono, ({}, {}))[0].setdefault(block, []).append(
                (i, j, -1.0))
        return rows, basis

    def row(rhs, block_entries, free_entries):
        ents = []
        for block, triplets in sorted(block_entries.items()):
            agg: dict = {}
            for i, j, v in triplets:
                key = (min(i, j), max(i, j))
                agg[key] = agg.get(key, 0.0) + float(v)
            kept = [(i, j, v) for (i, j), v in sorted(agg.items()) if v != 0.0]
            if kept:
                i, j, v = zip(*kept)
                ents.append((block, np.array(i, dtype=np.intp),
                             np.array(j, dtype=np.intp),
                             np.array(v, dtype=float)))
        free = [(k, float(v)) for k, v in sorted(free_entries.items())
                if v != 0.0]
        return (float(rhs), tuple(ents),
                (np.array([k for k, _ in free], dtype=np.intp),
                 np.array([v for _, v in free], dtype=float)))

    first = len(program.unknowns)
    tables = [identity_rows(ident, first + k)
              for k, ident in enumerate(program.identities)]
    span = invariant_parities(program)
    for ident, (rows, _) in zip(program.identities, tables):
        known_scale = 1.0 + ident.known.max_abs_coefficient()
        for mono in sorted(ident.known.terms.keys() - rows.keys(),
                           key=grlex_key):
            coef = ident.known.terms[mono]
            if abs(coef) > 1e-12 * known_scale:
                raise IllFormedIdentityError(
                    f"identity {ident.name!r}: monomial {mono} has known "
                    f"coefficient {coef} but no unknown can produce it")
    problem_rows = [
        row(-ident.known.coefficient(mono), *rows[mono])
        for ident, (rows, _) in zip(program.identities, tables)
        for mono in sorted(rows, key=grlex_key)
        if sosprog._reduce(sosprog._parity(mono), span) == 0]
    bases = tuple(u.basis for u in program.unknowns) \
        + tuple(basis for _, basis in tables)
    return problem_rows, bases, sum(len(rows) for rows, _ in tables), span


def _assert_same_bytes(program):
    """encode's problem holds the reference's rows byte for byte, and its
    tables are the reference's; or both raise the same error."""
    try:
        rows, bases, n_equalities, span = _reference_encode(program)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            encode(program)
        return
    enc = encode(program)
    problem = enc.problem
    assert (enc.bases, enc.n_equalities, enc.parity_span) == \
        (bases, n_equalities, span)
    assert enc.blocks == {name: b for b, name in enumerate(
        [u.name for u in program.unknowns]
        + [ident.name for ident in program.identities])}
    assert problem.block_sizes == tuple(len(b) for b in bases)
    assert problem.rhs.tobytes() == np.array([r for r, _, _ in rows]).tobytes()
    assert len(problem.entries) == len(problem.free_rows) == len(rows)
    for ents, free, (_, ref_ents, ref_free) in zip(
            problem.entries, problem.free_rows, rows):
        assert [(e.block, e.rows.dtype, e.rows.tobytes(), e.cols.dtype,
                 e.cols.tobytes(), e.vals.tobytes()) for e in ents] == \
            [(b, r.dtype, r.tobytes(), c.dtype, c.tobytes(), v.tobytes())
             for b, r, c, v in ref_ents]
        assert [(a.dtype, a.tobytes()) for a in free] == \
            [(a.dtype, a.tobytes()) for a in ref_free]
    objective = np.zeros(len(program.scalars))
    for name, coef in (program.objective or {}).items():
        objective[program.scalars.index(name)] = coef
    assert problem.obj_free.tobytes() == objective.tobytes()


def _decay_program(name, ell, delta, degree, beta, overrides=None):
    system = load_system(str(SYSTEMS / name), overrides)
    return build_absorbing_program(system, ell, delta, degree, beta)[0]


class TestSameBytes:
    """encode against _reference_encode, byte for byte."""

    @pytest.mark.parametrize("name, ell, delta, degree, beta, overrides", [
        ("affine_pair.sys", 2, 1.0, 4, 3.3, None),
        ("affine_triple.sys", 2, 1.0, 4, 2.0, None),
        ("linear_pair.sys", 1, 1.0, 2, 0.0, {"b": 5.0}),
        ("linear_pair.sys", 6, 1e-3, 12, 0.0, {"b": 12.0}),
        ("cubic_3d_pair.sys", 2, 1.0, 4, 0.0, None),
        ("cubic_3d_pair.sys", 2, 1.0, 4, 5.0, None),
        ("cubic_3d_pair.sys", 2, 1.0, 6, 0.0, None),
        ("cubic_3d_pair.sys", 2, 1.0, 8, 0.0, None),
        ("vdp_relay_pair.sys", 1, 1e-4, 6, 14.0, None),
        ("vdp_relay_pair.sys", 1, 1e-4, 8, 14.0, None),
    ])
    def test_decay_programs(self, name, ell, delta, degree, beta, overrides):
        program = _decay_program(name, ell, delta, degree, beta, overrides)
        _assert_same_bytes(program)

    def test_decay_program_of_a_given_lyapunov(self):
        system = load_system(str(SYSTEMS / "affine_pair.sys"))
        program = build_absorbing_program(
            system, 2, 1.0, 4, 3.3,
            lyapunov=parse_expression(V_AFFINE_PAIR, 2))[0]
        _assert_same_bytes(program)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-13])
    def test_lie_round_off_dropped_before_the_scale(self, scale):
        # at chi^P = x1 x2^3 the Lie sum is 0.3 * 1 - 0.1 * 3, round-off of
        # -5.6e-17: dropped after the add, it stays out at any scale
        field = PolynomialVectorField(2, (parse_expression("0.3*x1*x2", 2),
                                          parse_expression("-0.1*x2^2", 2)))
        identity = SosIdentity("decay", 2, parse_expression("x1^2*x2^2", 2),
                               (UnknownLieTerm("u", field, scale=scale),))
        _assert_same_bytes(SosProgram(
            (identity,), (SosUnknown("u", monomial_basis(2, 1, 2)),)))

    @pytest.mark.parametrize("name", [
        "sublevel", "sublevel-fixed-gamma", "membership", "shared-unknown"])
    def test_row_check_programs(self, name):
        program = _row_check_program(name)
        _assert_same_bytes(program)

    def test_quadratic_decay_program_of_31_states(self):
        # no bound on the dimension: degree 2 in 31 states reaches
        # products of degree 3 in 31 variables
        rng = np.random.default_rng(31)
        matrices = []
        for _ in range(2):
            A = -np.eye(31) + np.diag(rng.normal(size=30), 1)
            A[rng.integers(31), rng.integers(31)] += 0.5
            matrices.append(A)
        system = SwitchedSystem.from_matrices(matrices)
        _assert_same_bytes(build_absorbing_program(system, 1, 1.0, 2, 0.0)[0])

    def test_membership_program_of_65_variables(self):
        # parity masks past 64 bits: x64 x65 and x1 x65 span bits 63, 64
        # and 0, and x2 x3 lies outside the span
        known = parse_expression(
            "2*x1^2 + x64*x65 + x1*x65 + 3*x65^2 + x64^2 + x2*x3", 65)
        slack = Polynomial(65, {tuple(2 * (k == j) for k in range(65)): 1.0
                                for j in (0, 1, 2, 63, 64)})
        _assert_same_bytes(SosProgram(
            (SosIdentity("membership", 65, known,
                         (ScalarTerm("slack", slack),)),),
            (), ("slack",), {"slack": 1.0}))

    @pytest.mark.parametrize("known", ["x1", "x1^2 + x1", "x1^3"])
    def test_identities_without_terms(self, known):
        # the known part alone sizes the identity's basis: the same rows,
        # or the same error, as the reference
        _assert_same_bytes(SosProgram(
            (SosIdentity("m", 1, parse_expression(known, 1)),), ()))

    @settings(max_examples=100, derandomize=True, deadline=None,
              database=None)
    @given(data=st.data())
    def test_small_programs(self, data):
        program = data.draw(_small_programs())
        _assert_same_bytes(program)


# coefficients that reach the drop rule: near ZERO_THRESHOLD on their own
# or after a product with an exponent, and values that cancel exactly
_COEFS = st.sampled_from([1.0, -1.0, 0.5, -2.0, 3.0, 1e-14, -1e-14,
                          1.5e-14, 2e-14, 0.3, -0.1, 1e-7])


# coefficient pairs (c1, c2) whose sums P1 c1 + P2 c2 are 0.0 exactly, or
# round-off below ZERO_THRESHOLD, for some exponents P1, P2 <= 3
_MEETING = [(1.0, -1.0), (0.1, -0.1), (0.3, -0.1), (0.1, -0.3),
            (1.0, -0.99999999999999), (2.0, 3.0)]


@st.composite
def _small_programs(draw):
    """A program of one or two identities in one or two variables over up
    to two unknowns, with unknown, Lie and scalar terms."""
    n = draw(st.integers(1, 2))
    monos = monomial_basis(n, 0, 3).monomials

    def poly(max_terms=3):
        picked = draw(st.lists(st.sampled_from(monos), max_size=max_terms,
                               unique=True))
        return Polynomial(n, {m: draw(_COEFS) for m in picked})

    unknowns = tuple(
        SosUnknown(f"u{k}", monomial_basis(n, lo, lo + draw(st.integers(0, 1))))
        for k, lo in enumerate(draw(st.lists(st.integers(0, 1), min_size=1,
                                             max_size=2))))
    scalars = ("t",) if draw(st.booleans()) else ()
    identities = []
    for k in range(draw(st.integers(1, 2))):
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["weight", "lie", "lie", "scalar"]))
            if kind == "scalar" and scalars:
                terms.append(ScalarTerm("t", poly()))
            elif kind == "lie":
                # components that share a monomial after the shift m - e_k,
                # so their contributions meet (and may cancel) in one sum
                u = draw(st.sampled_from(unknowns)).name
                comps = [poly() for _ in range(n)]
                if n == 2 and draw(st.integers(0, 3)):
                    # x1 x2 in f1 and x2^2 in f2 both reach chi^(P + e2):
                    # P1 c1 + P2 c2 cancels exactly, or leaves round-off
                    c1, c2 = draw(st.sampled_from(_MEETING))
                    comps = [comps[0] + Polynomial(2, {(1, 1): c1}),
                             comps[1] + Polynomial(2, {(0, 2): c2})]
                terms.append(UnknownLieTerm(
                    u, PolynomialVectorField(n, tuple(comps)),
                    scale=draw(st.sampled_from([1.0, -1.0, 0.5, 1e-13, 1e3]))))
            else:
                terms.append(UnknownTerm(draw(st.sampled_from(unknowns)).name,
                                         poly()))
        # a known part the terms reach, so the identity is well formed
        identities.append(SosIdentity(f"id{k}", n, poly(2), tuple(terms)))
    return SosProgram(tuple(identities), unknowns, scalars)


class TestNoPolynomialPerProduct:
    def test_degree_eight_cubic_encode_builds_no_polynomial_per_product(
            self, monkeypatch):
        program = _decay_program("cubic_3d_pair.sys", 2, 1.0, 8, 0.0)
        built = []
        init = Polynomial.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Polynomial, "__init__", counting)
        encode(program)
        terms = sum(len(ident.terms) for ident in program.identities)
        assert len(built) <= terms
