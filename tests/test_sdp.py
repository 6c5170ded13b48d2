import numpy as np
import pytest

from switchcert import sdp
from switchcert.certify import build_absorbing_program
from switchcert.cli import load_system
from switchcert.sdp import (SdpProblemBuilder, SolverConfig, min_eigenvalue,
                            read_sdpa, solve, strict_feasibility_margin,
                            write_sdpa)
from switchcert.sosprog import encode


def planted_feasible(rng, size, m):
    """Constraints consistent with a planted strictly positive definite R."""
    G = rng.normal(size=(size, size))
    R_star = G @ G.T + 0.3 * np.eye(size)
    builder = SdpProblemBuilder([size])
    for _ in range(m):
        A = rng.normal(size=(size, size))
        A = 0.5 * (A + A.T)
        rhs = float(np.sum(A * R_star))
        builder.add_constraint(rhs, {0: [(i, j, A[i, j])
                                         for i in range(size)
                                         for j in range(i, size)]})
    return builder.build()


class TestSolveAnalytic:
    def test_min_trace_with_pinned_corner(self):
        builder = SdpProblemBuilder([2])
        builder.set_objective_block(0, np.eye(2))
        builder.add_constraint(1.0, {0: [(0, 0, 1.0)]})
        solution = solve(builder.build(), SolverConfig(audit=True))
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(solution.blocks[0], np.diag([1.0, 0.0]), atol=1e-5)

    def test_trace_one_offdiag_infeasible(self):
        # R >= 0 with tr R = 1 and R12 = 0.6: det = a(1-a) - 0.36 < 0 always,
        # since max a(1-a) = 0.25; the analytic oracle says infeasible
        builder = SdpProblemBuilder([2])
        builder.add_constraint(1.0, {0: [(0, 0, 1.0), (1, 1, 1.0)]})
        builder.add_constraint(0.6, {0: [(0, 1, 0.5)]})
        assert solve(builder.build()).status == "infeasible"

    def test_trace_one_offdiag_feasible(self):
        # R12 = 0.3 fits inside the PSD disc: a(1-a) >= 0.09 has solutions
        builder = SdpProblemBuilder([2])
        builder.add_constraint(1.0, {0: [(0, 0, 1.0), (1, 1, 1.0)]})
        builder.add_constraint(0.3, {0: [(0, 1, 0.5)]})
        solution = solve(builder.build(), SolverConfig(audit=True))
        assert solution.feasible
        assert solution.primal_residual <= 1e-7
        assert min(solution.min_eigenvalues) >= -1e-8

    def test_free_variable_objective(self):
        builder = SdpProblemBuilder([2], n_free=1)
        builder.set_objective_free([1.0])
        builder.add_constraint(2.0, {0: [(0, 0, 1.0)]}, {0: 1.0})
        builder.add_constraint(0.0, {0: [(1, 1, 1.0)]}, {0: -1.0})
        solution = solve(builder.build(), SolverConfig(audit=True))
        assert solution.status == "optimal"
        assert solution.free[0] == pytest.approx(0.0, abs=1e-6)

    def test_no_constraints_rejected(self):
        with pytest.raises(ValueError):
            solve(SdpProblemBuilder([2]).build())


class TestPlantedSuites:
    def test_strictly_feasible_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            size = int(rng.integers(2, 13))
            m = int(rng.integers(2, min(61, size * (size + 1) // 2 + 1)))
            problem = planted_feasible(rng, size, m)
            solution = solve(problem)
            assert solution.feasible, f"trial {trial}: {solution.message}"
            assert solution.primal_residual <= 1e-7
            assert min(solution.min_eigenvalues) >= -1e-8

    def test_planted_infeasible_instances(self):
        rng = np.random.default_rng(43)
        for trial in range(50):
            size = int(rng.integers(2, 9))
            builder = SdpProblemBuilder([size])
            builder.add_constraint(
                -1.0, {0: [(i, i, 1.0) for i in range(size)]})
            for _ in range(3):
                A = rng.normal(size=(size, size))
                A = 0.5 * (A + A.T)
                builder.add_constraint(
                    float(rng.normal()),
                    {0: [(i, j, A[i, j]) for i in range(size)
                         for j in range(i, size)]})
            solution = solve(builder.build())
            assert solution.status == "infeasible", f"trial {trial}"
            assert solution.certificate is not None

    def test_weak_duality(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            size = int(rng.integers(2, 9))
            problem = planted_feasible(rng, size, int(rng.integers(2, 12)))
            C = rng.normal(size=(size, size))
            builder = SdpProblemBuilder([size])
            builder.set_objective_block(0, 0.5 * (C + C.T))
            for j in range(problem.m):
                builder.add_constraint(
                    problem.rhs[j],
                    {0: [(int(i), int(jj), float(v)) for i, jj, v in zip(
                        problem.entries[j][0].rows,
                        problem.entries[j][0].cols,
                        problem.entries[j][0].vals)]})
            solution = solve(builder.build())
            if solution.status != "optimal":
                continue
            slack = 1e-6 * (1.0 + abs(solution.objective))
            assert solution.objective >= solution.dual_objective - slack

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(45)
        problem = planted_feasible(rng, 5, 8)
        a = solve(problem)
        b = solve(problem)
        assert a.status == b.status
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        for Xa, Xb in zip(a.blocks, b.blocks):
            assert np.array_equal(Xa, Xb)


class TestAttemptList:
    """The degree-12 homogeneous GAS decay program of the linear pair at
    b = 12 exhausts complementarity before reaching the default tolerances
    of 1e-7; solve reaches it at the relaxed level of 1e-6."""

    @pytest.fixture(scope="class")
    def gas_b12(self, systems_dir):
        system = load_system(str(systems_dir / "linear_pair.sys"), {"b": 12.0})
        program, _ = build_absorbing_program(
            system, ell=6, delta=1e-3, degree=12, beta=0.0, homogeneous=True)
        return encode(program).problem

    def test_relaxed_level_reaches_optimal(self, gas_b12):
        assert solve(gas_b12).status == "optimal"

    def test_mu_floor_skips_regularisations(self, gas_b12, monkeypatch):
        attempts = []
        inner = sdp._solve

        def recording(problem, config, regularization):
            attempts.append((config.feas_tol, config.gap_tol, regularization))
            return inner(problem, config, regularization)

        monkeypatch.setattr(sdp, "_solve", recording)
        solve(gas_b12)
        assert attempts == [(1e-7, 1e-7, 0.0), (1e-6, 1e-6, 0.0)]

    def test_relaxed_level_only_below_the_floor(self):
        loose = SolverConfig(feas_tol=1e-6, gap_tol=1e-5)
        assert sdp._tolerance_levels(loose) == [loose]
        tight = SolverConfig(feas_tol=1e-9, psd_tol=1e-9, gap_tol=1e-5)
        first, relaxed = sdp._tolerance_levels(tight)
        assert first == tight
        assert (relaxed.feas_tol, relaxed.psd_tol, relaxed.gap_tol) == \
            (1e-6, 1e-9, 1e-5)


class TestMinEigenvalue:
    def test_diagonal(self):
        assert min_eigenvalue(np.diag([3.0, 1.0, 2.0])) == pytest.approx(1.0)

    def test_off_diagonal(self):
        assert min_eigenvalue(np.array([[0.0, 1.0], [1.0, 0.0]])) == \
            pytest.approx(-1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMargins:
    def test_identity_gram_margin(self):
        builder = SdpProblemBuilder([2])
        builder.add_constraint(1.0, {0: [(0, 0, 1.0)]})
        builder.add_constraint(1.0, {0: [(1, 1, 1.0)]})
        builder.add_constraint(0.0, {0: [(0, 1, 0.5)]})
        problem = builder.build()
        solution = solve(problem)
        config = SolverConfig()
        margin = strict_feasibility_margin(problem, solution, config)
        assert margin == pytest.approx(1.0 - config.psd_tol, abs=1e-5)

    def test_rank_deficient_margin(self):
        # unique solution diag(1, 0): margin sits at about -psd_tol
        builder = SdpProblemBuilder([2])
        builder.add_constraint(1.0, {0: [(0, 0, 1.0)]})
        builder.add_constraint(0.0, {0: [(1, 1, 1.0)]})
        builder.add_constraint(0.0, {0: [(0, 1, 0.5)]})
        problem = builder.build()
        solution = solve(problem)
        config = SolverConfig()
        margin = strict_feasibility_margin(problem, solution, config)
        assert margin == pytest.approx(-config.psd_tol, abs=1e-6)

    def test_margin_requires_feasible(self):
        builder = SdpProblemBuilder([2])
        builder.add_constraint(-1.0, {0: [(0, 0, 1.0), (1, 1, 1.0)]})
        solution = solve(builder.build())
        with pytest.raises(ValueError):
            strict_feasibility_margin(builder.build(), solution)


class TestSdpaFormat:
    def test_round_trip_solution_equivalent(self, tmp_path):
        rng = np.random.default_rng(46)
        problem = planted_feasible(rng, 4, 6)
        builder = SdpProblemBuilder([4])
        builder.set_objective_block(0, np.eye(4))
        for j in range(problem.m):
            ent = problem.entries[j][0]
            builder.add_constraint(
                problem.rhs[j],
                {0: [(int(i), int(jj), float(v)) for i, jj, v in zip(
                    ent.rows, ent.cols, ent.vals)]})
        original = builder.build()
        path = tmp_path / "problem.dat-s"
        write_sdpa(original, str(path))
        loaded = read_sdpa(str(path))
        a = solve(original)
        b = solve(loaded)
        assert a.status == b.status == "optimal"
        assert a.objective == pytest.approx(b.objective, rel=1e-6)

    def test_free_variables_encoded_as_split_diagonal(self, tmp_path):
        builder = SdpProblemBuilder([2], n_free=1)
        builder.set_objective_free([1.0])
        builder.add_constraint(2.0, {0: [(0, 0, 1.0)]}, {0: 1.0})
        builder.add_constraint(0.0, {0: [(1, 1, 1.0)]}, {0: -1.0})
        original = builder.build()
        path = tmp_path / "free.dat-s"
        write_sdpa(original, str(path))
        loaded = read_sdpa(str(path))
        # split block doubles the free scalar into a +/- pair
        assert sum(loaded.block_sizes) == 2 + 2
        a = solve(original)
        b = solve(loaded)
        assert b.feasible
        assert a.objective == pytest.approx(b.objective, abs=1e-5)
