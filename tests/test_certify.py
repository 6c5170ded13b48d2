import dataclasses

import numpy as np
import pytest

from conftest import (BETA_AFFINE_PAIR, SYSTEMS, V_AFFINE_PAIR,
                      V_LINEAR_PAIR_DEG12, encode_posed,
                      linear_pair_matrices, same_row)
from switchcert import certify, sdp
from switchcert.certify import (AbsorbingSetCertificate,
                                CertificateRejectedError, CertificationQuery,
                                EquilibriumError, GammaInfeasibleError,
                                SwitchedSystem, VerificationReport, classify,
                                cqlf_bisection, escalate,
                                find_absorbing_lyapunov, find_common_lyapunov,
                                minimize_gamma, tighten_beta,
                                verify_certificate)
from switchcert.cli import load_system
from switchcert.poly import parse_expression
from switchcert.sdp import solve
from switchcert.sosprog import decode, encode, parity_classes


# the bundled decay programs: (system, parameters, ell, delta, degree, beta,
# posed rows m, Gram block sizes)
DECAY_PROGRAMS = [
    ("affine_pair", {}, 2, 1.0, 4, 3.3, 30, (3, 3, 3, 6, 6)),
    ("affine_triple", {}, 2, 1.0, 4, 2.0, 45,
     (3, 3, 3, 3, 6, 6, 6)),
    ("cubic_3d_pair", {}, 2, 1.0, 4, 5.0, 119, (6, 10, 4, 20, 10)),
    ("cubic_3d_pair", {}, 2, 1.0, 6, 0.0, 241,
     (19, 20, 10, 34, 19)),
    ("cubic_3d_pair", {}, 2, 1.0, 8, 0.0, 443,
     (34, 35, 20, 55, 34)),
    ("vdp_relay_pair", {}, 1, 1e-4, 6, 14.0, 73, (9, 10, 6, 15, 10)),
    ("vdp_relay_pair", {}, 1, 1e-4, 8, 14.0, 111,
     (14, 15, 10, 21, 15)),
    ("linear_pair", {"b": 12.0}, 6, 1e-3, 12, 0.0, 26,
     (7, 6, 6, 7, 7)),
    ("linear_pair", {"b": 5.0}, 1, 1.0, 2, 0.0, 6, (2, 1, 1, 2, 2)),
]


def status_of(result):
    return "feasible" if result.feasible else "infeasible"


class TestFindAbsorbingLyapunov:
    def test_scalar_stable_system(self):
        system = SwitchedSystem.from_matrices([np.array([[-1.0]])])
        query = CertificationQuery(ell=1, delta=1.0, degree=2, beta=0.0)
        result = find_absorbing_lyapunov(system, query)
        assert result.feasible
        # V is proportional to x^2
        assert set(result.lyapunov.terms) == {(2,)}
        assert result.lyapunov.coefficient((2,)) >= 1.0

    def test_affine_pair_at_reported_beta(self, affine_pair):
        query = CertificationQuery(ell=2, delta=1.0, degree=4, beta=3.3)
        result = find_absorbing_lyapunov(affine_pair, query)
        assert result.feasible
        assert result.lyapunov.is_homogeneous()
        assert result.lyapunov.degree() == 4

    def test_cubic_3d_degree_tradeoff(self, cubic_3d_pair):
        logs = []
        q4 = CertificationQuery(ell=2, delta=1.0, degree=4, beta=0.0)
        assert find_absorbing_lyapunov(cubic_3d_pair, q4,
                                       logs).proven_infeasible
        q6 = CertificationQuery(ell=2, delta=1.0, degree=6, beta=0.0)
        result = find_absorbing_lyapunov(cubic_3d_pair, q6, logs)
        assert result.feasible
        # the log gives a solution's smallest Gram eigenvalue as it is,
        # above the solver's bar, and none for a ray
        ray, solved = logs
        assert ray.min_eig is None and "min_eig" not in ray.line()
        assert solved.min_eig == min(result.solution.min_eigenvalues)
        assert solved.min_eig >= -sdp.PSD_TOL
        assert solved.line().endswith(f" min_eig={solved.min_eig:.3e}")

    def test_log_gives_solved_blocks(self, cubic_3d_pair, affine_pair):
        # the 34-wide block of the cubic degree-6 program is solved as its
        # two sign classes, and the log says so before min_eig; a program
        # solved whole, as the affine pair's, says nothing of it
        logs = []
        q6 = CertificationQuery(ell=2, delta=1.0, degree=6, beta=0.0)
        result = find_absorbing_lyapunov(cubic_3d_pair, q6, logs)
        log, = logs
        assert log.solved_sizes == result.solution.solved_sizes == \
            ((19,), (20,), (10,), (13, 21), (19,))
        assert f"rows={log.rows} solved_blocks=19,20,10,13+21,19 " \
            f"min_eig={log.min_eig:.3e}" in log.line()
        logs = []
        q4 = CertificationQuery(ell=2, delta=1.0, degree=4, beta=3.3)
        find_absorbing_lyapunov(affine_pair, q4, logs)
        log, = logs
        assert all(len(parts) == 1 for parts in log.solved_sizes)
        assert "solved_blocks" not in log.line()

    def test_requires_fixed_beta(self, affine_pair):
        query = CertificationQuery(ell=2, degree=4, beta=None, beta_max=4.0)
        with pytest.raises(ValueError):
            find_absorbing_lyapunov(affine_pair, query)


class TestMinimizeGamma:
    def test_norm_ball_level_set(self):
        system = SwitchedSystem.from_matrices(
            [np.array([[-1.0, 0.0], [0.0, -1.0]])])
        V = parse_expression("x1^2 + x2^2", 2)
        out = minimize_gamma(system, V, beta=1.0, deg_q=0)
        assert out.gamma == pytest.approx(1.0, abs=1e-5)

    def test_published_pair_value(self, affine_pair, published_v_affine_pair):
        out = minimize_gamma(affine_pair, published_v_affine_pair, beta=3.3)
        assert out.gamma == pytest.approx(8725.0, rel=0.05)

    def test_published_triple_value(self, affine_triple,
                                    published_v_affine_triple):
        out = minimize_gamma(affine_triple, published_v_affine_triple,
                             beta=2.0)
        assert out.gamma == pytest.approx(38.43, rel=0.05)

    def test_monotone_in_q_degree(self, affine_pair, affine_triple,
                                  published_v_affine_pair,
                                  published_v_affine_triple):
        for system, V, beta in ((affine_pair, published_v_affine_pair, 3.3),
                                (affine_triple, published_v_affine_triple,
                                 2.0)):
            gammas = []
            for deg_q in (2, 4):
                gammas.append(
                    minimize_gamma(system, V, beta, deg_q=deg_q).gamma)
            slack = 1e-6 * (1.0 + abs(gammas[0]))
            assert gammas[1] <= gammas[0] + slack

    def test_log_gives_min_eig(self, affine_pair, published_v_affine_pair,
                               monkeypatch):
        # the sublevel log follows the decay log's rule: a solution's
        # smallest Gram eigenvalue, as it is
        solutions = []

        def solve_and_keep(problem):
            solutions.append(sdp.solve(problem))
            return solutions[-1]

        monkeypatch.setattr(certify, "solve", solve_and_keep)
        logs = []
        minimize_gamma(affine_pair, published_v_affine_pair, beta=3.3,
                       logs=logs)
        (log,), (solution,) = logs, solutions
        assert log.purpose == "sublevel"
        assert log.min_eig == min(solution.min_eigenvalues) >= -sdp.PSD_TOL
        assert log.line().endswith(f" min_eig={log.min_eig:.3e}")

    def test_degree_zero_q_infeasible_for_quartic(self, affine_pair,
                                                  published_v_affine_pair):
        # a constant q cannot cancel the quartic top of V
        with pytest.raises(GammaInfeasibleError):
            minimize_gamma(affine_pair, published_v_affine_pair, beta=3.3,
                           deg_q=0)


class TestQueryConstants:
    def test_beta_and_beta_max_together_rejected(self):
        with pytest.raises(ValueError, match="beta or beta_max, not both"):
            CertificationQuery(ell=2, degree=4, beta=3.3, beta_max=6.0)


class TestTightenBeta:
    def test_scalar_system_reaches_zero(self):
        system = SwitchedSystem.from_matrices([np.array([[-1.0]])])
        query = CertificationQuery(ell=1, delta=1.0, degree=2, beta_max=2.0)
        out = tighten_beta(system, query)
        assert out.beta_star == 0.0
        assert not out.monotonicity_violations

    def test_affine_pair_tightens_below_reported(self, affine_pair):
        query = CertificationQuery(ell=2, delta=1.0, degree=4, beta_max=3.3,
                                   beta_tol=0.05)
        out = tighten_beta(affine_pair, query)
        assert out.beta_star <= 3.3
        assert out.result.feasible
        assert not out.monotonicity_violations

    def test_infeasible_beta_max_rejected(self, affine_pair):
        query = CertificationQuery(ell=2, delta=1.0, degree=4, beta_max=0.5)
        with pytest.raises(ValueError):
            tighten_beta(affine_pair, query)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError,
                           match="beta_tol must be finite and positive"):
            CertificationQuery(ell=1, delta=1.0, degree=2, beta_max=6.0,
                               beta_tol=tol)

    @pytest.mark.parametrize("tol, probes", [(0.05, 9), (1e-20, 57)])
    def test_bisection_stops_below_float_spacing(self, monkeypatch, tol,
                                                 probes):
        # a stub search feasible iff beta >= 1: a tolerance below the float
        # spacing at 1 ends when the midpoint stops moving
        seen = []

        def stub(system, query, logs=None):
            seen.append(query.beta)
            assert len(seen) <= 100, "bisection does not terminate"
            return certify.AbsorbingSearchResult(feasible=query.beta >= 1.0)

        monkeypatch.setattr(certify, "find_absorbing_lyapunov", stub)
        system = SwitchedSystem.from_matrices([np.array([[-1.0]])])
        out = tighten_beta(system, CertificationQuery(
            ell=1, delta=1.0, degree=2, beta_max=6.0, beta_tol=tol))
        assert len(seen) == probes
        assert seen[:2] == [6.0, 0.0]
        assert 1.0 <= out.beta_star <= 1.0 + max(tol, 1e-15)
        assert out.result.feasible
        assert not out.monotonicity_violations

    def test_van_der_pol_tightens_to_fourteen_or_less(self, vdp_pair):
        query = CertificationQuery(ell=1, delta=1e-4, degree=6,
                                   beta_max=14.0, beta_tol=1.0)
        out = tighten_beta(vdp_pair, query)
        assert out.beta_star <= 14.0
        assert out.result.feasible


class TestCommonLyapunov:
    def test_cqlf_feasible_then_infeasible(self):
        for b, expected in ((5.0, "feasible"), (6.0, "infeasible")):
            system = SwitchedSystem.from_matrices(linear_pair_matrices(b))
            query = CertificationQuery(ell=1, delta=1.0, degree=2, beta=0.0)
            assert status_of(find_common_lyapunov(system, query)) == expected

    def test_equilibrium_precondition(self, affine_pair):
        query = CertificationQuery(ell=2, delta=1.0, degree=4, beta=0.0)
        with pytest.raises(EquilibriumError):
            find_common_lyapunov(affine_pair, query)

    def test_high_degree_homogeneous_instance(self):
        system = SwitchedSystem.from_matrices(linear_pair_matrices(12.0))
        query = CertificationQuery(ell=6, delta=0.001, degree=12, beta=0.0)
        result = find_common_lyapunov(system, query)
        assert result.feasible
        assert result.lyapunov.is_homogeneous()
        assert result.lyapunov.degree() == 12


class TestCqlfBisection:
    def test_reported_threshold(self):
        out = cqlf_bisection(linear_pair_matrices, (0.5, 20.0), tol=0.01)
        assert out.b_max == pytest.approx(5.36, abs=0.05)
        # independent algebraic oracle: no real negative eigenvalue of A1 A2
        # exactly when b is below the threshold
        A1 = linear_pair_matrices(1.0)[0]
        for b, expect in ((out.b_max - 0.2, False), (out.b_max + 0.2, True)):
            A2 = linear_pair_matrices(b)[1]
            eigs = np.linalg.eigvals(A1 @ A2)
            has_neg_real = bool(np.any((np.abs(eigs.imag) < 1e-9)
                                       & (eigs.real < 0)))
            assert has_neg_real == expect

    def test_identical_stable_matrices_whole_interval(self):
        out = cqlf_bisection(lambda b: [-np.eye(2), -np.eye(2)], (0.5, 30.0))
        assert out.b_max == 30.0

    def test_infeasible_left_end(self):
        with pytest.raises(ValueError):
            cqlf_bisection(linear_pair_matrices, (20.0, 30.0))

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_tolerance_must_be_finite_and_positive(self, monkeypatch, tol):
        def no_search(system, query, logs=None):
            raise AssertionError("search called")
        monkeypatch.setattr(certify, "find_common_lyapunov", no_search)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            cqlf_bisection(linear_pair_matrices, (0.5, 20.0), tol=tol)

    def test_bisection_stops_below_float_spacing(self, monkeypatch):
        # a stub search feasible iff b <= 5, read off the system's matrix
        seen = []

        def stub(system, query, logs=None):
            b = -system.fields[0].linear_matrix()[0, 0]
            seen.append(b)
            assert len(seen) <= 100, "bisection does not terminate"
            return certify.AbsorbingSearchResult(feasible=b <= 5.0)

        monkeypatch.setattr(certify, "find_common_lyapunov", stub)
        out = cqlf_bisection(lambda b: [np.array([[-b]])], (0.5, 20.0),
                             tol=1e-20)
        assert seen[:2] == [0.5, 20.0]
        assert len(seen) < 100
        assert 5.0 - 1e-14 <= out.b_max <= 5.0

    def test_numerical_failure_probe_is_inconclusive(self, monkeypatch):
        # a solve that ends in numerical failure proves nothing either way:
        # the bisection moves past it, but may not record it as infeasible
        expected = cqlf_bisection(linear_pair_matrices, (0.5, 20.0),
                                  tol=0.01).b_max
        real = certify.find_common_lyapunov
        calls = []

        def failure_at_right_end(system, query, logs=None):
            calls.append(system)
            if len(calls) == 2:
                raise certify.NumericalFailureError("stand-in failure")
            return real(system, query, logs)

        monkeypatch.setattr(certify, "find_common_lyapunov",
                            failure_at_right_end)
        out = cqlf_bisection(linear_pair_matrices, (0.5, 20.0), tol=0.01)
        assert out.probes[1] == (20.0, "inconclusive")
        assert out.b_max == expected


class TestVerifyCertificate:
    def test_published_pair_all_checks(self, affine_pair,
                                       published_v_affine_pair):
        cert = AbsorbingSetCertificate(
            dimension=2, n_subsystems=2, lyapunov=published_v_affine_pair,
            beta=3.3, delta=1.0, ell=2, gamma=8725.0)
        report = verify_certificate(affine_pair, cert, sample_count=2000,
                                    residual_tol=1e-5)
        assert report.passed
        assert report.negativity_margin > 0
        assert report.containment_ok

    def test_published_triple_all_checks(self, affine_triple,
                                         published_v_affine_triple):
        cert = AbsorbingSetCertificate(
            dimension=2, n_subsystems=3, lyapunov=published_v_affine_triple,
            beta=2.0, delta=1.0, ell=2, gamma=38.43)
        report = verify_certificate(affine_triple, cert, sample_count=2000,
                                    residual_tol=1e-5)
        assert report.passed

    def test_rotation_field_fails_negativity(self):
        system = SwitchedSystem.from_matrices(
            [np.array([[0.0, 1.0], [-1.0, 0.0]])])
        cert = AbsorbingSetCertificate(
            dimension=2, n_subsystems=1,
            lyapunov=parse_expression("x1^2 + x2^2", 2),
            beta=1.0, delta=1.0, ell=1, gamma=4.0)
        with pytest.raises(CertificateRejectedError) as err:
            verify_certificate(system, cert, sample_count=500)
        assert any("negativity" in f or "identity" in f
                   for f in err.value.report.failures)

    def test_shrunk_gamma_fails_containment(self, affine_pair,
                                            published_v_affine_pair):
        cert = AbsorbingSetCertificate(
            dimension=2, n_subsystems=2, lyapunov=published_v_affine_pair,
            beta=3.3, delta=1.0, ell=2, gamma=100.0)
        with pytest.raises(CertificateRejectedError) as err:
            verify_certificate(affine_pair, cert, sample_count=2000,
                               residual_tol=1e-5)
        assert any("containment" in f for f in err.value.report.failures)

    @pytest.mark.parametrize("lyapunov, multipliers, check, degree", [
        ("x1^4 + x2^4 + x1^3", None, "lyapunov-lower-bound", 3),
        ("2*x1^4 + 2*x2^4", ("x1", "1"), "multiplier-p1", 1),
    ], ids=["V", "p1"])
    def test_odd_top_degree_is_a_named_failure(self, affine_pair, lyapunov,
                                               multipliers, check, degree):
        # V - delta*nrm is x1^3 in the first case: a single odd degree,
        # which has no Gram basis
        cert = AbsorbingSetCertificate(
            dimension=2, n_subsystems=2,
            lyapunov=parse_expression(lyapunov, 2), beta=3.3, delta=1.0,
            ell=2, gamma=100.0,
            multipliers=multipliers and tuple(
                parse_expression(p, 2) for p in multipliers))
        with pytest.raises(CertificateRejectedError) as err:
            verify_certificate(affine_pair, cert, sample_count=200)
        assert f"{check} (odd top degree {degree}: not a sum of squares)" \
            in err.value.report.failures

    def test_odd_top_degree_fails_before_basis_or_solve(self, monkeypatch):
        def unused(*args):
            raise AssertionError("called")

        monkeypatch.setattr(certify, "gram_basis", unused)
        monkeypatch.setattr(certify, "solve", unused)
        assert certify._check_sos_membership(
            parse_expression("x1^4 + x1^2*x2^3", 2), 1e-6) == \
            "odd top degree 5: not a sum of squares"

    def test_dimension_mismatch(self, affine_pair):
        cert = AbsorbingSetCertificate(
            dimension=3, n_subsystems=2,
            lyapunov=parse_expression("x1^2 + x2^2 + x3^2", 3),
            beta=1.0, delta=1.0, ell=1, gamma=1.0)
        with pytest.raises(ValueError):
            verify_certificate(affine_pair, cert)

    def test_subsystem_count_mismatch(self, affine_pair_plus_third,
                                      affine_pair_certificate):
        # pairing the two multipliers with the three fields would leave the
        # third decay identity unchecked
        with pytest.raises(ValueError,
                           match="certificate does not match system dimensions"):
            verify_certificate(affine_pair_plus_third,
                               affine_pair_certificate)

    def test_multiplier_count_mismatch(self, affine_pair_plus_third,
                                       affine_pair_certificate):
        cert = dataclasses.replace(affine_pair_certificate, n_subsystems=3)
        with pytest.raises(ValueError,
                           match="certificate does not match system dimensions"):
            verify_certificate(affine_pair_plus_third, cert)

    @pytest.mark.parametrize("bad", [
        pytest.param({"residual_tol": float("nan")}, id="bad0"),
        pytest.param({"residual_tol": 0.0}, id="bad1"),
        pytest.param({"sample_count": 0}, id="bad4")])
    def test_bad_settings_rejected_before_any_solve(
            self, affine_pair, published_v_affine_pair, monkeypatch, bad):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called")

        monkeypatch.setattr(certify, "solve", no_solve)
        cert = AbsorbingSetCertificate(
            dimension=2, n_subsystems=2, lyapunov=published_v_affine_pair,
            beta=3.3, delta=1.0, ell=2, gamma=8725.0)
        name = next(iter(bad))
        with pytest.raises(ValueError, match=name):
            verify_certificate(affine_pair, cert, **bad)


class TestCertificateConstants:
    @pytest.mark.parametrize("bad, message", [
        ({"ell": 0}, "ell must be a positive integer"),
        ({"delta": 0.0}, "delta must be positive and finite"),
        ({"delta": float("nan")}, "delta must be positive and finite"),
        ({"beta": -1.0}, "beta must be non-negative and finite"),
        ({"beta": float("inf")}, "beta must be non-negative and finite"),
        ({"gamma": float("nan")}, "gamma must be finite"),
        ({"gamma": float("-inf")}, "gamma must be finite")])
    def test_built_in_code_rejected(self, published_v_affine_pair, bad,
                                    message):
        constants = dict(beta=3.3, delta=1.0, ell=2, gamma=8725.0)
        with pytest.raises(ValueError, match=message):
            AbsorbingSetCertificate(
                dimension=2, n_subsystems=2,
                lyapunov=published_v_affine_pair, **{**constants, **bad})


def assert_gram_table(encoding, program):
    """One basis per SDP block, of the block's size, and one block per
    unknown and identity, the unknowns' first."""
    assert [len(basis) for basis in encoding.bases] == \
        list(encoding.problem.block_sizes)
    names = [u.name for u in program.unknowns] \
        + [ident.name for ident in program.identities]
    assert list(encoding.blocks) == names
    assert list(encoding.blocks.values()) == list(range(len(names)))
    assert encoding.bases[:encoding.n_unknowns] == \
        tuple(u.basis for u in program.unknowns)


class TestProgramSizes:
    """Posed rows m, solved rows and Gram block sizes of each bundled
    program, encoded without a solve.  m and the blocks follow from the
    basis rule alone.  The solved rows leave out the monomials whose
    parity the program's sign symmetries do not fix: the odd fields of the
    cubic and van der Pol pairs, and the even V of the published
    sublevels, have such symmetries; the affine fields, whose constant
    terms rule out every sign change, and the homogeneous linear pair,
    whose rows are all even already, lose none.  A change to either rule that moves them on
    purpose updates this table and says why."""

    # rows the decay programs below solve, by (system, degree)
    SOLVED = {("affine_pair", 4): 30, ("affine_triple", 4): 45,
              ("cubic_3d_pair", 4): 72, ("cubic_3d_pair", 6): 143,
              ("cubic_3d_pair", 8): 254, ("vdp_relay_pair", 6): 41,
              ("vdp_relay_pair", 8): 61, ("linear_pair", 12): 26,
              ("linear_pair", 2): 6}

    @pytest.mark.parametrize(
        "name, params, ell, delta, degree, beta, m, blocks", DECAY_PROGRAMS)
    def test_decay_program(self, name, params, ell, delta, degree, beta, m,
                           blocks):
        system = load_system(str(SYSTEMS / f"{name}.sys"), params)
        program, _ = certify.build_absorbing_program(
            system, ell, delta, degree, beta)
        encoding = encode(program)
        problem = encoding.problem
        assert (encoding.n_equalities, problem.m, tuple(problem.block_sizes),
                problem.n_free) == (m, self.SOLVED[name, degree], blocks, 0)
        assert_gram_table(encoding, program)

    @pytest.mark.parametrize("v_text, beta, m, solved, blocks", [
        (V_AFFINE_PAIR, BETA_AFFINE_PAIR, 15, 9, (3, 6)),
        (V_LINEAR_PAIR_DEG12, 0.0, 91, 49, (21, 28))],
        ids=["affine_pair", "linear_pair_b12"])
    def test_sublevel_program_of_published_v(self, v_text, beta, m, solved,
                                             blocks):
        V = parse_expression(v_text, 2)
        program = certify._sublevel_program(
            V, beta, certify._multiplier_degree(V.degree()))
        encoding = encode(program)
        problem = encoding.problem
        assert (encoding.n_equalities, problem.m, tuple(problem.block_sizes),
                problem.n_free) == (m, solved, blocks, 1)
        assert_gram_table(encoding, program)

    def test_multiplier_degree(self):
        # D = deg f + deg V - 1 gives deg p_i, and D = deg V the default
        # deg q, which for a linear field equals deg p_i
        for deg_v, linear, cubic in ((2, 0, 2), (4, 2, 4), (6, 4, 6),
                                     (12, 10, 12)):
            assert certify._multiplier_degree(1 + deg_v - 1) == linear
            assert certify._multiplier_degree(3 + deg_v - 1) == cubic
            assert certify._multiplier_degree(deg_v) == linear
        assert [certify._multiplier_degree(D) for D in (0, 1, 3, 5)] == \
            [0, 0, 0, 2]


class TestSignSymmetryReduction:
    """encode leaves out the rows that the sign symmetries of a program
    make vacuous; encode_posed keeps every row, as the program poses it."""

    @pytest.mark.parametrize(
        "name, params, ell, delta, degree, beta, m, blocks", DECAY_PROGRAMS)
    def test_reduced_program_solves_as_posed(self, name, params, ell, delta,
                                             degree, beta, m, blocks):
        system = load_system(str(SYSTEMS / f"{name}.sys"), params)
        program, _ = certify.build_absorbing_program(
            system, ell, delta, degree, beta)
        reduced, posed = encode(program), encode_posed(program)
        solved, full = solve(reduced.problem), solve(posed.problem)
        assert (solved.status, solved.iterations) == \
            (full.status, full.iterations)
        if not solved.feasible:
            return
        # the IPM keeps the entries that no solved row touches at 0.0
        for block, basis in enumerate(reduced.bases):
            classes = parity_classes(basis, reduced.parity_span)
            cross = classes[:, None] != classes[None, :]
            assert np.all(solved.blocks[block][cross] == 0.0)
        ours, theirs = decode(reduced, solved), decode(posed, full)
        for name, poly in theirs.polynomials.items():
            gap = (ours.polynomials[name] - poly).max_abs_coefficient()
            assert gap <= 1e-9 * poly.max_abs_coefficient()

    def test_farkas_ray_holds_on_posed_rows(self, cubic_3d_pair):
        # the degree-4 cubic program at beta = 0 has no solution; its ray,
        # zero on the rows left out, proves that of the posed program
        program, _ = certify.build_absorbing_program(
            cubic_3d_pair, 2, 1.0, 4, 0.0)
        reduced, posed = encode(program), encode_posed(program)
        solution = solve(reduced.problem)
        assert solution.status == "infeasible"
        kept, j = [], 0
        for k in range(reduced.problem.m):
            while not same_row(reduced.problem, k, posed.problem, j):
                j += 1
            kept.append(j)
            j += 1
        assert len(kept) < posed.problem.m
        y = np.zeros(posed.problem.m)
        y[kept] = solution.certificate["ray_y"]
        y /= np.max(np.abs(y))
        mats = [np.zeros((s, s)) for s in posed.problem.block_sizes]
        for yj, row in zip(y, posed.problem.entries):
            for ent in row:
                mats[ent.block][ent.rows, ent.cols] -= yj * ent.vals
                off = ent.rows != ent.cols
                mats[ent.block][ent.cols[off], ent.rows[off]] -= \
                    yj * ent.vals[off]
        assert posed.problem.rhs @ y > 0
        assert min(np.linalg.eigvalsh(M)[0] for M in mats) >= -1e-9


class TestClassify:
    def _verified_stub(self, **kwargs):
        report = VerificationReport(
            identity_residuals={}, gram_margins={}, negativity_margin=1.0,
            containment_ok=True, sample_count=1,
            seed=0, failures=(), residual_tol=1e-6)
        return AbsorbingSetCertificate(report=report, **kwargs)

    def test_linear_hurwitz_pair_is_gas(self):
        system = SwitchedSystem.from_matrices(linear_pair_matrices(12.0))
        cert = self._verified_stub(
            dimension=2, n_subsystems=2,
            lyapunov=parse_expression("x1^2 + x2^2", 2),
            beta=0.0, delta=1.0, ell=1, gamma=1e-6)
        verdict = classify(system, cert)
        assert verdict.kind == "GLOBALLY_ASYMPTOTICALLY_STABLE"
        assert any("periodic" in note for note in verdict.notes)

    def test_non_hurwitz_never_gas(self):
        # one subsystem has an eigenvalue with positive real part; even a
        # (stub) verified certificate must not upgrade to GAS
        system = SwitchedSystem.from_matrices(
            [np.array([[-1.0, 0.0], [0.0, -1.0]]),
             np.array([[0.5, 0.0], [0.0, -1.0]])])
        cert = self._verified_stub(
            dimension=2, n_subsystems=2,
            lyapunov=parse_expression("x1^2 + x2^2", 2),
            beta=1.0, delta=1.0, ell=1, gamma=2.0)
        assert classify(system, cert).kind == "ULTIMATELY_BOUNDED"

    def test_nonlinear_is_ultimately_bounded(self, vdp_pair):
        cert = self._verified_stub(
            dimension=2, n_subsystems=2,
            lyapunov=parse_expression("x1^2 + x2^2", 2),
            beta=14.0, delta=1e-4, ell=1, gamma=22.0)
        verdict = classify(vdp_pair, cert)
        assert verdict.kind == "ULTIMATELY_BOUNDED"
        assert any("absorbing set" in note for note in verdict.notes)

    def test_requires_verified_report(self, vdp_pair):
        cert = AbsorbingSetCertificate(
            dimension=2, n_subsystems=2,
            lyapunov=parse_expression("x1^2 + x2^2", 2),
            beta=14.0, delta=1e-4, ell=1, gamma=22.0)
        with pytest.raises(ValueError):
            classify(vdp_pair, cert)


class TestEscalate:
    def test_scalar_terminates_at_degree_two(self):
        system = SwitchedSystem.from_matrices([np.array([[-1.0]])])
        out = escalate(system, CertificationQuery(ell=1, beta=0.0))
        assert out.degree == 2
        assert out.verdict.kind == "GLOBALLY_ASYMPTOTICALLY_STABLE"

    def test_infeasible_at_cap(self):
        system = SwitchedSystem.from_matrices(linear_pair_matrices(20.0))
        from switchcert.certify import InfeasibleAtCapError
        with pytest.raises(InfeasibleAtCapError):
            escalate(system, CertificationQuery(
                ell=1, beta=0.0, degree_cap=4))

    def test_full_pipeline_affine_pair(self, affine_pair):
        out = escalate(affine_pair, CertificationQuery(
            ell=2, delta=1.0, degree=4, beta=3.3))
        cert = out.certificate
        assert cert.report.passed
        assert cert.gamma > 0
        # the second subsystem is affine, not linear, so no GAS upgrade
        assert out.verdict.kind == "ULTIMATELY_BOUNDED"
        assert len(out.logs) >= 2

    def test_beta_zero_equivalence_gamma_small(self):
        # a common Lyapunov certificate allows an arbitrarily small gamma
        system = SwitchedSystem.from_matrices(linear_pair_matrices(5.0))
        out = escalate(system, CertificationQuery(ell=1, degree=2, beta=0.0))
        assert out.certificate.gamma <= 1e-3

    def test_beta_max_decay_program_solved_once(self, affine_pair):
        # tighten_beta reuses the search escalate certified at beta_max;
        # called directly, it probes beta_max itself and gives the same
        # outcome, so nothing but the repeated solve goes
        query = CertificationQuery(ell=2, delta=1.0, degree=4, beta_max=6.0)
        out = escalate(affine_pair, query)
        decay_at_max = [log for log in out.logs
                        if log.purpose == "decay" and log.beta == 6.0]
        assert len(decay_at_max) == 1

        direct = tighten_beta(affine_pair, query)
        gamma = minimize_gamma(affine_pair, direct.result.lyapunov,
                               direct.beta_star)
        assert out.tighten.probes == direct.probes
        assert out.certificate.beta == direct.beta_star
        assert out.certificate.lyapunov.terms == direct.result.lyapunov.terms
        assert out.certificate.gamma == gamma.gamma

    def test_containment_samples(self, affine_pair):
        out = escalate(affine_pair, CertificationQuery(
            ell=2, delta=1.0, degree=4, beta=3.3, verify_samples=10000))
        report = out.certificate.report
        assert report.containment_ok
        assert report.sample_count == 10000
