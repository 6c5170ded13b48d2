"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criterion 4 compares absorbing sets rather than raw gamma, because the
scale of V is free.  Criterion 7 checks the reported onset b = 13.26
against the exact worst-case critical value b* = 13.2794 and the greedy
growth against the worst-case peak 2.548.  The class docstrings give the
reasons.
"""

import time

import numpy as np
import pytest

from conftest import (BETA_AFFINE_PAIR, BETA_AFFINE_TRIPLE, GAMMA_AFFINE_PAIR,
                      GAMMA_AFFINE_TRIPLE, identity_residual,
                      linear_pair_matrices)
from switchcert import sim
from switchcert.certify import (AbsorbingSetCertificate,
                                CertificateRejectedError, CertificationQuery,
                                SwitchedSystem, cqlf_bisection, escalate,
                                minimize_gamma, verify_certificate)
from switchcert.poly import gradient
from switchcert.sdp import SdpProblemBuilder, solve
from switchcert.sosprog import (SosIdentity, SosProgram, decode, encode,
                                gram_expand, monomial_basis)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}" + (f" ({detail})" if detail
                                                     else ""))


class TestCriterion1:
    def test_cqlf_threshold(self):
        started = time.time()
        out = cqlf_bisection(linear_pair_matrices, (0.5, 20.0), tol=0.01)
        elapsed = time.time() - started
        ok = abs(out.b_max - 5.36) <= 0.05 and elapsed < 10.0
        report(1, "CQLF threshold", ok,
               f"b_max={out.b_max:.4f} target 5.36+-0.05, {elapsed:.1f}s")
        assert abs(out.b_max - 5.36) <= 0.05
        assert elapsed < 10.0


class TestCriterion2:
    def test_high_degree_gas(self, published_v_linear_pair):
        started = time.time()
        system = SwitchedSystem.from_matrices(linear_pair_matrices(12.0))
        outcome = escalate(system, CertificationQuery(
            ell=6, delta=0.001, degree=12, beta=0.0))
        primary = outcome.verdict.kind == "GLOBALLY_ASYMPTOTICALLY_STABLE"

        # fallback bar: the externally reported degree-12 certificate at
        # b = 12 passes the residual, Gram and negativity checks (a-c)
        printed = AbsorbingSetCertificate(
            dimension=2, n_subsystems=2, lyapunov=published_v_linear_pair,
            beta=0.0, delta=0.001, ell=6, gamma=None)
        try:
            verify_certificate(system, printed, sample_count=2000,
                               residual_tol=1e-5)
            printed_ok = True
        except CertificateRejectedError:
            printed_ok = False
        elapsed = time.time() - started
        ok = primary and printed_ok and elapsed < 300.0
        report(2, "high-degree GAS at b=12", ok,
               f"own solve GAS={primary}, printed V checks a-c={printed_ok}, "
               f"{elapsed:.1f}s")
        assert primary
        assert printed_ok
        assert elapsed < 300.0


class TestCriterion3:
    def test_published_pair_certificate(self, affine_pair,
                                        published_v_affine_pair):
        started = time.time()
        cert = AbsorbingSetCertificate(
            dimension=2, n_subsystems=2, lyapunov=published_v_affine_pair,
            beta=BETA_AFFINE_PAIR, delta=1.0, ell=2, gamma=GAMMA_AFFINE_PAIR)
        rep = verify_certificate(affine_pair, cert, sample_count=2000,
                                 residual_tol=1e-5)
        elapsed = time.time() - started
        ok = rep.passed and elapsed < 30.0
        report(3, "published pair certificate verifies", ok,
               f"residual_max={max(rep.identity_residuals.values()):.2e}, "
               f"{elapsed:.1f}s")
        assert rep.passed
        assert elapsed < 30.0

    def test_published_triple_certificate(self, affine_triple,
                                          published_v_affine_triple):
        started = time.time()
        cert = AbsorbingSetCertificate(
            dimension=2, n_subsystems=3, lyapunov=published_v_affine_triple,
            beta=BETA_AFFINE_TRIPLE, delta=1.0, ell=2,
            gamma=GAMMA_AFFINE_TRIPLE)
        rep = verify_certificate(affine_triple, cert, sample_count=2000,
                                 residual_tol=1e-5)
        elapsed = time.time() - started
        ok = rep.passed and elapsed < 30.0
        report(3, "published triple certificate verifies", ok,
               f"residual_max={max(rep.identity_residuals.values()):.2e}, "
               f"{elapsed:.1f}s")
        assert rep.passed
        assert elapsed < 30.0


class TestCriterion4:
    """Absorbing-set reproduction with the toolkit's own V.

    The published V must reproduce the reference gammas (8725 and 38.43)
    within 5%.  The raw gamma of the toolkit's own V is not comparable with
    them: the decay program leaves the scale of V free, and gamma scales
    with V.  Multiplying the SOS part of the published pair V by 10 or 100
    still passes the decay check and gives gamma = 87184 and 871779, so the
    reference gammas are one solver's incidental interior point.  What the
    method promises is the absorbing set {V <= gamma}, which does not depend
    on the scale of V; the own-V set may be at most 5% larger in area than
    the published-V set."""

    @staticmethod
    def _sublevel_area(V, gamma, count=4096):
        """Area of {V <= gamma} for a positive definite planar quartic form.

        In polar coordinates the boundary radius is (gamma / V(u))^(1/4) at
        the unit vector u, so the area is 1/2 times the integral of
        (gamma / V(u))^(1/2) over the angle; the periodic trapezoid rule
        converges spectrally."""
        theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        values = V.evaluate_many(np.column_stack((np.cos(theta),
                                                  np.sin(theta))))
        assert np.all(values > 0.0)
        return float(np.pi * np.mean(np.sqrt(gamma / values)))

    def _compare_absorbing_sets(self, system, published_v, beta, reference,
                                label):
        started = time.time()
        outcome = escalate(system, CertificationQuery(
            ell=2, delta=1.0, degree=4, beta=beta))
        published = minimize_gamma(system, published_v, beta)
        elapsed = time.time() - started
        own = outcome.certificate
        assert own.lyapunov.is_homogeneous() and own.lyapunov.degree() == 4
        ratio = self._sublevel_area(own.lyapunov, own.gamma) \
            / self._sublevel_area(published_v, published.gamma)
        published_ok = abs(published.gamma - reference) <= 0.05 * reference
        ok = (published_ok and own.report.passed and ratio <= 1.05
              and elapsed < 60.0)
        report(4, f"absorbing-set reproduction ({label}, own V)", ok,
               f"published V gamma={published.gamma:.5g} vs {reference:g}; "
               f"own V gamma={own.gamma:.5g} (V has a free scale), "
               f"own/published set area={ratio:.4f} (bar 1.05), "
               f"{elapsed:.1f}s")
        assert elapsed < 60.0
        assert published_ok
        assert own.report.passed
        assert ratio <= 1.05

    def test_gamma_reproduction_pair(self, affine_pair,
                                     published_v_affine_pair):
        self._compare_absorbing_sets(affine_pair, published_v_affine_pair,
                                     BETA_AFFINE_PAIR, GAMMA_AFFINE_PAIR,
                                     "pair")

    def test_gamma_reproduction_triple(self, affine_triple,
                                       published_v_affine_triple):
        self._compare_absorbing_sets(affine_triple, published_v_affine_triple,
                                     BETA_AFFINE_TRIPLE, GAMMA_AFFINE_TRIPLE,
                                     "triple")


class TestCriterion5:
    def test_degree_tradeoff_and_sizes(self, cubic_3d_pair):
        started = time.time()
        at_zero = escalate(cubic_3d_pair, CertificationQuery(
            ell=2, delta=1.0, beta=0.0))
        at_five = escalate(cubic_3d_pair, CertificationQuery(
            ell=2, delta=1.0, beta=5.0))
        elapsed = time.time() - started

        decay_log = next(log for log in at_five.logs
                         if log.purpose == "decay" and log.degree == 4)
        eq, dv = decay_log.equalities, decay_log.decision_variables

        def within(a, b):
            return max(a / b, b / a) <= 1.5

        # counting-convention caveat: the reference tooling's "equalities"
        # and "decision variables" pair with this encoding's counts either
        # directly or swapped
        direct = within(eq, 444) and within(dv, 125)
        swapped = within(dv, 444) and within(eq, 125)
        ok = (at_zero.degree == 6 and at_five.degree == 4
              and (direct or swapped) and elapsed < 180.0)
        report(5, "3-D degree trade-off and SDP sizes", ok,
               f"degrees {at_zero.degree}/{at_five.degree} expect 6/4; "
               f"beta=5 sizes ({eq} equalities, {dv} decision vars) vs "
               f"reported (444, 125), convention "
               f"{'direct' if direct else 'swapped' if swapped else 'none'}, "
               f"{elapsed:.1f}s")
        assert at_zero.degree == 6
        assert at_five.degree == 4
        assert direct or swapped
        assert elapsed < 180.0


class TestCriterion6:
    def test_limit_cycle_containment(self, vdp_pair):
        started = time.time()
        outcome = escalate(vdp_pair, CertificationQuery(
            ell=1, delta=1e-4, degree=6, beta=14.0))
        cert = outcome.certificate
        xs = np.linspace(-3.8, 3.8, 10)
        ys = np.linspace(-9.5, 9.5, 10)
        grid = np.array([[a, b] for a in xs for b in ys])
        signals = [sim.random_switching(2, 15.0, 0.5, seed)
                   for seed in range(20)]
        signals.append(sim.adversarial_switching(
            vdp_pair, cert.lyapunov, grid[0], 1e-3, 15.0))
        rep = sim.check_absorption(vdp_pair, cert, grid, signals, h=1e-3,
                                   horizon=15.0)
        elapsed = time.time() - started
        ok = rep.violations == 0 and elapsed < 180.0
        report(6, "limit-cycle containment", ok,
               f"gamma={cert.gamma:.2f}, violations={rep.violations}, "
               f"never-entered={rep.not_entered}, {elapsed:.1f}s")
        assert rep.violations == 0
        assert elapsed < 180.0


class TestCriterion7:
    """Falsification at b = 13.26 against the exact worst case.

    For a planar pair the worst case under arbitrary switching follows from
    the variational method (Margaliot, "Stability analysis of switched
    systems using variational principles: an introduction", Automatica
    2006).  On the unit circle subsystem i has radial rate rho_i(theta) and
    angular rate g_i(theta).  Subsystem 2 turns clockwise at every angle,
    and every sliding-mode ray (a convex combination with zero angular
    rate) decays, the fastest at -0.051.  So the worst trajectory turns
    clockwise and takes, at each angle, the largest log-growth per radian
    max_i rho_i / -g_i.  Its half-revolution integral has the root
    b* = 13.2794, so the reported onset 13.26 is reproduced to 0.2%.  At
    13.26 no signal started at (1, 0) can reach a norm above the worst-case
    peak 2.548, so the test asks the greedy signal to reach that peak
    rather than a 10x growth."""

    @staticmethod
    def _polar_rates(c, theta):
        """Radial and angular rates of x' = [[0, 1], [-c, -2]] x at angle
        theta on the unit circle."""
        ct, st = np.cos(theta), np.sin(theta)
        return (1 - c) * ct * st - 2 * st * st, \
            -(c * ct * ct + st * st + 2 * ct * st)

    @classmethod
    def _clockwise_log_growth(cls, b, count=100_001):
        """Worst-case log of the norm along the first clockwise
        half-revolution from (1, 0): the cumulative trapezoid integral of
        max_i rho_i / -g_i over the subsystems turning clockwise."""
        phi = np.linspace(0.0, np.pi, count)
        best = np.full(count, -np.inf)
        for c in (0.1, b):
            rho, g = cls._polar_rates(c, -phi)
            clockwise = g < 0
            best[clockwise] = np.maximum(best[clockwise],
                                         rho[clockwise] / -g[clockwise])
        steps = 0.5 * (best[1:] + best[:-1]) * np.diff(phi)
        return np.concatenate(([0.0], np.cumsum(steps)))

    @classmethod
    def _fastest_sliding_rate(cls, b, count=100_001):
        """Largest radial rate on a sliding-mode ray, where the two
        angular rates have opposite signs and a convex combination of the
        subsystems holds the angle fixed."""
        theta = np.linspace(0.0, np.pi, count)
        rho1, g1 = cls._polar_rates(0.1, theta)
        rho2, g2 = cls._polar_rates(b, theta)
        ray = g1 * g2 < 0
        weight = g2[ray] / (g2[ray] - g1[ray])
        return float(np.max(weight * rho1[ray] + (1 - weight) * rho2[ray]))

    def test_falsification_at_reported_parameter(self):
        from scipy.optimize import brentq

        started = time.time()
        system = SwitchedSystem.from_matrices(linear_pair_matrices(13.26))
        signal = sim.adversarial_switching(system, None, [1.0, 0.0], 1e-3,
                                           50.0)
        trajectory = sim.integrate(system, signal, [1.0, 0.0], 1e-3, 50.0)
        factor = float(np.max(np.linalg.norm(trajectory.states, axis=1)))
        elapsed = time.time() - started

        # a decaying sliding ray makes the clockwise integral the exact
        # worst case: a back-and-forth excursion gains, per radian, a
        # positive multiple of the sliding rate at that angle
        sliding = self._fastest_sliding_rate(13.26)
        # b = 12 is certified GAS (criterion 2) and b = 16 grows
        b_star = brentq(lambda b: self._clockwise_log_growth(b)[-1],
                        12.0, 16.0, xtol=1e-8)
        # the integrand has period pi and a negative half-revolution
        # integral below b*, so the peak lies in the first half-revolution
        peak = float(np.exp(np.max(self._clockwise_log_growth(13.26))))
        mismatch = abs(factor / peak - 1.0)
        onset_ok = 13.26 < b_star <= 13.2865  # within 0.2% of 13.26
        ok = (sliding < 0.0 and onset_ok and mismatch <= 1e-3
              and elapsed < 10.0)
        report(7, "falsification at b=13.26", ok,
               f"greedy growth factor={factor:.7f} vs worst-case peak "
               f"{peak:.7f} (rel. diff {mismatch:.1e}); critical "
               f"b*={b_star:.4f}, reported 13.26; fastest sliding ray "
               f"{sliding:+.3f}, {elapsed:.1f}s")
        assert elapsed < 10.0
        assert sliding < 0.0
        assert onset_ok
        assert mismatch <= 1e-3

    def test_falsification_machinery_beyond_critical(self):
        # the same machinery demonstrates instability above the critical value
        system = SwitchedSystem.from_matrices(linear_pair_matrices(16.0))
        signal = sim.adversarial_switching(system, None, [1.0, 0.0], 1e-3,
                                           50.0)
        trajectory = sim.integrate(system, signal, [1.0, 0.0], 1e-3, 50.0)
        factor = float(np.linalg.norm(trajectory.final_state))
        report(7, "falsification machinery (b=16 supplement)", factor >= 10.0,
               f"growth factor={factor:.1f}")
        assert factor >= 10.0


class TestCriterion8:
    def test_property_suites(self):
        started = time.time()
        rng = np.random.default_rng(123)

        # polynomial algebra: evaluation is a ring homomorphism
        from test_poly import random_poly
        for _ in range(20):
            n = int(rng.integers(1, 5))
            p = random_poly(rng, n, 6)
            q = random_poly(rng, n, 6)
            pts = rng.uniform(-2.0, 2.0, size=(100, n))
            lhs = (p * q).evaluate_many(pts)
            rhs = p.evaluate_many(pts) * q.evaluate_many(pts)
            assert np.all(np.abs(lhs - rhs) <= 1e-9 * (1.0 + np.abs(rhs)))

        # gradients against central finite differences
        for _ in range(20):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, 5)
            g = gradient(p)
            x = rng.uniform(-1.0, 1.0, size=n)
            for k in range(n):
                e = np.zeros(n)
                e[k] = 1e-5
                fd = (p.evaluate(x + e) - p.evaluate(x - e)) / 2e-5
                assert fd == pytest.approx(g[k].evaluate(x), rel=1e-5,
                                           abs=1e-7)

        # Gram residuals on 100 random SOS instances
        for _ in range(100):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            basis = monomial_basis(n, 0, d)
            G = rng.normal(size=(len(basis), len(basis)))
            target = gram_expand(basis, G @ G.T)
            identity = SosIdentity("m", n, target, ())
            enc = encode(SosProgram((identity,), ()))
            solution = solve(enc.problem)
            assert solution.feasible
            residual = identity_residual(identity, decode(enc, solution), enc)
            assert residual.max_abs_coefficient() <= \
                1e-6 * (1.0 + target.max_abs_coefficient())

        # planted SDP suites: classification at 100 percent, weak duality
        feasible_ok = infeasible_ok = 0
        for _ in range(50):
            size = int(rng.integers(2, 10))
            G = rng.normal(size=(size, size))
            R_star = G @ G.T + 0.3 * np.eye(size)
            builder = SdpProblemBuilder([size])
            builder.set_objective_block(0, np.eye(size))
            for _ in range(int(rng.integers(2, 12))):
                A = rng.normal(size=(size, size))
                A = 0.5 * (A + A.T)
                builder.add_constraint(
                    float(np.sum(A * R_star)),
                    {0: [(i, j, A[i, j]) for i in range(size)
                         for j in range(i, size)]})
            solution = solve(builder.build())
            if solution.feasible and solution.primal_residual <= 1e-7:
                if solution.status != "optimal" or solution.objective >= \
                        solution.dual_objective - 1e-6 * (
                            1.0 + abs(solution.objective)):
                    feasible_ok += 1
        for _ in range(50):
            size = int(rng.integers(2, 8))
            builder = SdpProblemBuilder([size])
            builder.add_constraint(-1.0, {0: [(i, i, 1.0)
                                              for i in range(size)]})
            solution = solve(builder.build())
            infeasible_ok += solution.status == "infeasible"

        # RK4 order: h^4 scaling within a factor of 4
        system = SwitchedSystem.from_matrices([np.array([[-1.0]])])
        errors = []
        for h in (0.1, 0.05, 0.025):
            trajectory = sim.integrate(
                system, sim.SwitchingSignal.constant(1, 1.0), [1.0], h, 1.0)
            errors.append(abs(trajectory.final_state[0] - np.exp(-1.0)))
        ratios_ok = all(4.0 <= a / b <= 64.0
                        for a, b in zip(errors, errors[1:]))

        elapsed = time.time() - started
        ok = feasible_ok == 50 and infeasible_ok == 50 and ratios_ok
        report(8, "property suites", ok,
               f"planted feasible {feasible_ok}/50, infeasible "
               f"{infeasible_ok}/50, RK4 order ok={ratios_ok}, "
               f"{elapsed:.1f}s")
        assert feasible_ok == 50
        assert infeasible_ok == 50
        assert ratios_ok
