import os
import re
import subprocess
import sys
import textwrap
import threading
import types
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse

from conftest import BETA_AFFINE_PAIR, REPO, V_AFFINE_PAIR
from switchcert import sdp
from switchcert.certify import (_multiplier_degree, _sublevel_program,
                                build_absorbing_program)
from switchcert.cli import load_system
from switchcert.poly import parse_expression
from switchcert.sdp import (SdpProblemBuilder, min_eigenvalue, read_sdpa,
                            solve, write_sdpa)
from switchcert.sosprog import encode


def planted_feasible(rng, size, m, objective=None):
    """Constraints consistent with a planted strictly positive definite R,
    with the block objective when one is given."""
    G = rng.normal(size=(size, size))
    R_star = G @ G.T + 0.3 * np.eye(size)
    builder = SdpProblemBuilder([size])
    if objective is not None:
        builder.set_objective_block(0, objective)
    for _ in range(m):
        A = rng.normal(size=(size, size))
        A = 0.5 * (A + A.T)
        rhs = float(np.sum(A * R_star))
        builder.add_constraint(rhs, {0: [(i, j, A[i, j])
                                         for i in range(size)
                                         for j in range(i, size)]})
    return builder.build()


def random_pd(rng, size):
    G = rng.normal(size=(size, size))
    return G @ G.T + np.eye(size)


def dense_constraints(problem, scale):
    """Per block, the scaled constraint matrices A_j as an (m, s, s) array,
    built entry by entry from SdpProblem.entries."""
    dense = [np.zeros((problem.m, s, s)) for s in problem.block_sizes]
    for j, ents in enumerate(problem.entries):
        for ent in ents:
            for i, k, v in zip(ent.rows, ent.cols, ent.vals):
                dense[ent.block][j, i, k] = dense[ent.block][j, k, i] = \
                    v * scale[j]
    return dense


def stacked(emb, blocks):
    """Per-block matrices as the embedding's per-size stacks."""
    return [np.stack([blocks[b] for b in idx]) for _, idx in emb.groups]


def assert_newton_rows(emb, E, newton, eta, tc, corrM, corr_tk, d):
    """The six Newton equations of the embedding hold for direction d,
    checked block by block through per-block views of the stacks."""
    E1, E2, E3, E4 = E
    X, E2, Sinv, dX, dS = (emb.unstack(stacks) for stacks in
                           (emb.X, E2, newton.Sinv, d.dX, d.dS))
    corrM = emb.unstack(corrM) if corrM else None
    tol = 1e-6 * (1 + emb.m)
    lhs1 = emb.opA(d.dX) + (emb.D @ d.du if emb.f else 0.0) - emb.b * d.dtau
    assert np.max(np.abs(lhs1 + eta * E1)) < tol, "primal Newton row failed"
    At_dy = emb.unstack(emb.opAt(d.dy))
    for b in range(len(emb.sizes)):
        lhs2 = At_dy[b] + dS[b]
        assert np.max(np.abs(lhs2 + eta * E2[b])) < tol, "dual Newton row failed"
    if emb.f:
        lhs3 = emb.D.T @ d.dy - emb.g * d.dtau
        assert np.max(np.abs(lhs3 + eta * E3)) < tol, "free Newton row failed"
    lhs4 = float(emb.g @ d.du) - float(emb.b @ d.dy) + d.dkappa
    assert abs(lhs4 + eta * E4) < tol, "gap Newton row failed"
    for b in range(len(emb.sizes)):
        lhs5 = dX[b] + sdp._sym(X[b] @ dS[b] @ Sinv[b]) \
            - (tc * Sinv[b] - X[b] - (corrM[b] if corrM else 0.0))
        assert np.max(np.abs(lhs5)) < tol, "complementarity Newton row failed"
    lhs6 = emb.tau * d.dkappa + emb.kappa * d.dtau \
        - (tc - emb.tau * emb.kappa - corr_tk)
    assert abs(lhs6) < tol, "tau-kappa Newton row failed"


@pytest.fixture
def audited(monkeypatch):
    """Checks the Newton rows of every predictor and corrector direction;
    the returned list holds the free-scalar count of each checked call."""
    calls = []
    inner = sdp._direction

    def checked(emb, E, newton, eta, tc, corrM, corr_tk):
        d = inner(emb, E, newton, eta, tc, corrM, corr_tk)
        assert_newton_rows(emb, E, newton, eta, tc, corrM, corr_tk, d)
        calls.append(emb.f)
        return d

    monkeypatch.setattr(sdp, "_direction", checked)
    return calls


def record_attempts(monkeypatch):
    """Wraps sdp._solve and sdp._newton_system: the returned list gets one
    set per _solve call, holding the KKT shifts its Newton systems used."""
    attempts = []
    inner_solve, inner_newton = sdp._solve, sdp._newton_system

    def recording(problem):
        attempts.append(set())
        return inner_solve(problem)

    def newton(emb, Lx, Ls, Sinv, shift):
        system = inner_newton(emb, Lx, Ls, Sinv, shift)
        attempts[-1].add(system.shift)
        return system

    monkeypatch.setattr(sdp, "_solve", recording)
    monkeypatch.setattr(sdp, "_newton_system", newton)
    return attempts


class TestSolveAnalytic:
    def test_min_trace_with_pinned_corner(self, audited):
        builder = SdpProblemBuilder([2])
        builder.set_objective_block(0, np.eye(2))
        builder.add_constraint(1.0, {0: [(0, 0, 1.0)]})
        solution = solve(builder.build())
        assert audited
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(solution.blocks[0], np.diag([1.0, 0.0]), atol=1e-5)

    def test_trace_one_offdiag_infeasible(self, audited):
        # R >= 0 with tr R = 1 and R12 = 0.6: det = a(1-a) - 0.36 < 0 always,
        # since max a(1-a) = 0.25; the analytic oracle says infeasible
        builder = SdpProblemBuilder([2])
        builder.add_constraint(1.0, {0: [(0, 0, 1.0), (1, 1, 1.0)]})
        builder.add_constraint(0.6, {0: [(0, 1, 0.5)]})
        solution = solve(builder.build())
        assert solution.status == "infeasible"
        # predictor and corrector of every iteration up to the Farkas ray
        assert len(audited) == 2 * solution.iterations

    def test_trace_one_offdiag_feasible(self, audited):
        # R12 = 0.3 fits inside the PSD disc: a(1-a) >= 0.09 has solutions
        builder = SdpProblemBuilder([2])
        builder.add_constraint(1.0, {0: [(0, 0, 1.0), (1, 1, 1.0)]})
        builder.add_constraint(0.3, {0: [(0, 1, 0.5)]})
        solution = solve(builder.build())
        assert audited
        assert solution.feasible
        assert solution.primal_residual <= 1e-7
        assert min(solution.min_eigenvalues) >= -1e-8

    def test_free_variable_objective(self, audited):
        builder = SdpProblemBuilder([2], n_free=1)
        builder.set_objective_free([1.0])
        builder.add_constraint(2.0, {0: [(0, 0, 1.0)]}, {0: 1.0})
        builder.add_constraint(0.0, {0: [(1, 1, 1.0)]}, {0: -1.0})
        solution = solve(builder.build())
        # every direction checked the free-scalar row as well
        assert audited and set(audited) == {1}
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


def upper(M):
    """The upper-triangle entries of M as (i, j, value) triplets."""
    return [(i, j, M[i, j]) for i in range(len(M)) for j in range(i, len(M))]


class TestBlockObjective:
    """The builder poses a block objective <C, X_b> as one more free scalar
    t, with objective coefficient 1, and one more row <C, X_b> - t = 0."""

    @staticmethod
    def constrained(builder, rng):
        for _ in range(3):
            A = sdp._sym(rng.normal(size=(3, 3)))
            builder.add_constraint(float(rng.normal()), {1: upper(A)},
                                   {0: 1.0})
        return builder

    @staticmethod
    def data(problem):
        return ([[(e.block, e.rows.tolist(), e.cols.tolist(), e.vals.tolist())
                  for e in row] for row in problem.entries],
                [(idx.tolist(), vals.tolist())
                 for idx, vals in problem.free_rows])

    def test_same_problem_as_free_scalar_form(self):
        C = sdp._sym(np.random.default_rng(0).normal(size=(3, 3)))
        posed = self.constrained(SdpProblemBuilder([2, 3], n_free=1),
                                 np.random.default_rng(1))
        posed.set_objective_free([2.0])
        posed.set_objective_block(1, C)
        by_hand = self.constrained(SdpProblemBuilder([2, 3], n_free=2),
                                   np.random.default_rng(1))
        by_hand.set_objective_free([2.0, 1.0])
        by_hand.add_constraint(0.0, {1: upper(C)}, {1: -1.0})
        a, b = posed.build(), by_hand.build()
        assert a.n_free == b.n_free == 2
        assert np.array_equal(a.rhs, b.rhs)
        assert np.array_equal(a.obj_free, b.obj_free)
        assert self.data(a) == self.data(b)

    @pytest.mark.parametrize("seed", [50, 51, 52, 53])
    def test_objective_is_block_inner_product(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(3, 7))
        C = random_pd(rng, size)
        solution = solve(planted_feasible(rng, size, size + 2, objective=C))
        assert solution.status == "optimal"
        assert len(solution.free) == 1
        assert solution.free[0] == pytest.approx(solution.objective,
                                                 rel=1e-12)
        inner = float(np.sum(C * solution.blocks[0]))
        assert abs(solution.objective - inner) <= 1e-5 * abs(inner)


class TestBuilderIndices:
    """A block index outside 0..nblocks-1 is a ValueError that names it:
    read as a Python index, -1 would land in the last block."""

    @pytest.mark.parametrize("block", [-1, 2])
    def test_constraint_block_rejected(self, block):
        builder = SdpProblemBuilder([2, 2])
        with pytest.raises(ValueError, match=f"block index {block} "):
            builder.add_constraint(1.0, {block: [(0, 0, 1.0)]})
        assert builder.build().m == 0

    @pytest.mark.parametrize("block", [-1, 2])
    def test_objective_block_rejected(self, block):
        builder = SdpProblemBuilder([2, 2])
        with pytest.raises(ValueError, match=f"block index {block} "):
            builder.set_objective_block(block, np.eye(2))
        assert builder.build().n_free == 0


class TestRowRule:
    """add_rows against a row built entry by entry: (i, j) stored with
    i <= j, repeats summed in the order given from 0.0, zero sums dropped,
    entries sorted by (block, i, j) and free coefficients by index."""

    @staticmethod
    def reference(rhs, triplets, free):
        ents = []
        for block in sorted({b for b, _, _, _ in triplets}):
            agg: dict = {}
            for b, i, j, v in triplets:
                if b == block:
                    key = (min(i, j), max(i, j))
                    agg[key] = agg.get(key, 0.0) + v
            kept = [(i, j, v) for (i, j), v in sorted(agg.items()) if v != 0.0]
            if kept:
                ents.append((block, *map(list, zip(*kept))))
        coefs: dict = {}
        for k, v in free:
            coefs[k] = coefs.get(k, 0.0) + v
        kept = sorted((k, v) for k, v in coefs.items() if v != 0.0)
        return rhs, ents, [k for k, _ in kept], [v for _, v in kept]

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_at_once_as_entry_by_entry(self, seed):
        rng = np.random.default_rng(seed)
        sizes, n_free, m = (3, 1, 5), 3, 6
        values = [0.1, 0.2, 0.3, -0.3, 1e-17, 1.0, -1.0]
        rows = []
        for r in range(m):
            triplets = []
            for _ in range(rng.integers(0, 12)):
                b = int(rng.integers(len(sizes)))
                i, j = (int(x) for x in rng.integers(sizes[b], size=2))
                triplets.append((b, i, j, float(rng.choice(values))))
            free = [(int(rng.integers(n_free)), float(rng.choice(values)))
                    for _ in range(rng.integers(0, 4))]
            rows.append((float(rng.normal()), triplets, free))
        builder = SdpProblemBuilder(sizes, n_free=n_free)
        builder.add_rows(
            [rhs for rhs, _, _ in rows],
            [np.array([r for r, (_, t, _) in enumerate(rows) for _ in t]),
             *(np.array([e[k] for _, t, _ in rows for e in t])
               for k in range(4))],
            [np.array([r for r, (_, _, f) in enumerate(rows) for _ in f]),
             *(np.array([e[k] for _, _, f in rows for e in f])
               for k in range(2))])
        problem = builder.build()
        for r, row in enumerate(rows):
            rhs, ents, idx, vals = self.reference(*row)
            assert problem.rhs[r] == rhs
            got = problem.entries[r]
            assert [(e.block, e.rows.tolist(), e.cols.tolist()) for e in got] \
                == [(b, i, j) for b, i, j, _ in ents]
            assert [e.vals.tobytes() for e in got] == \
                [np.array(v).tobytes() for _, _, _, v in ents]
            assert problem.free_rows[r][0].tolist() == idx
            assert problem.free_rows[r][1].tobytes() == \
                np.array(vals, dtype=float).tobytes()

    def test_read_sdpa_poses_its_rows_in_one_call(self, tmp_path,
                                                  monkeypatch):
        # one call for the constraints and one for the block objectives,
        # so reading stays linear in the entries for many blocks
        path = tmp_path / "diag.dat-s"
        path.write_text("3\n2\n2 -40\n1 2 3\n"
                        + "".join(f"0 2 {k} {k} 1.0\n" for k in range(1, 41))
                        + "".join(f"{r} 2 {k} {k} 0.5\n{r} 1 1 2 1.0\n"
                                  for r in (1, 2, 3) for k in range(1, 41)))
        calls = []
        rule = SdpProblemBuilder._rule

        def counted(self, *args):
            calls.append(len(args[0]))
            return rule(self, *args)

        monkeypatch.setattr(SdpProblemBuilder, "_rule", counted)
        problem = read_sdpa(str(path))
        assert calls == [3, 40]
        assert problem.m == 43 and len(problem.block_sizes) == 41


class TestSparseOperators:
    """opA, opAt and the Schur complement against dense references."""

    SIZES = (3, 2, 4)

    def problem(self, rng):
        # block 1 is touched by no constraint, the last caller's constraint
        # touches only the free scalars, each block entry list repeats a
        # pair (i, j), once in reverse order, and the objectives of blocks
        # 0 and 2 add two free scalars and their rows
        builder = SdpProblemBuilder(self.SIZES, n_free=2)
        for b in (0, 2):
            C = rng.normal(size=(self.SIZES[b],) * 2)
            builder.set_objective_block(b, 0.5 * (C + C.T))
        for j in range(7):
            entries = {}
            for b in (0, 2):
                s = self.SIZES[b]
                triplets = [(int(rng.integers(s)), int(rng.integers(s)),
                             float(rng.normal())) for _ in range(4)]
                i, k, _ = triplets[0]
                triplets += [(k, i, float(rng.normal())),
                             (i, k, float(rng.normal()))]
                entries[b] = triplets
            builder.add_constraint(float(rng.normal()), entries,
                                   {j % 2: float(rng.normal())})
        builder.add_constraint(1.0, None, {0: 1.0, 1: -2.0})
        return builder.build()

    @pytest.mark.parametrize("seed", [47, 48, 49])
    def test_against_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        problem = self.problem(rng)
        emb = sdp._Embedding(problem)
        A = dense_constraints(problem, emb.con_scale)
        assert len(emb.rows[1]) == 0
        # storage is one value per nonzero of the symmetric A_j
        assert [len(op.data) for op in emb.A] == \
            [int(np.count_nonzero(A_b)) for A_b in A]
        assert [len(rows) for rows in emb.rows] == \
            [int(np.count_nonzero(np.any(A_b, axis=(1, 2)))) for A_b in A]

        X = [random_pd(rng, s) for s in self.SIZES]
        Sinv = [np.linalg.inv(random_pd(rng, s)) for s in self.SIZES]
        y = rng.normal(size=problem.m)
        opA = sum(np.einsum("kij,ij->k", A_b, X_b) for A_b, X_b in zip(A, X))
        assert np.allclose(emb.opA(stacked(emb, X)), opA,
                           rtol=1e-13, atol=1e-13)
        for got, A_b in zip(emb.unstack(emb.opAt(y)), A):
            assert np.allclose(got, np.einsum("k,kij->ij", y, A_b),
                               rtol=1e-13, atol=1e-13)

        emb.X = stacked(emb, X)
        B = sdp._schur(emb, stacked(emb, Sinv))
        B_ref = sum(np.einsum("jab,bc,kcd,da->jk", A_b, X_b, A_b, Si)
                    for A_b, X_b, Si in zip(A, X, Sinv))
        assert np.allclose(B, B_ref, rtol=1e-12, atol=1e-12)
        assert np.array_equal(B, B.T)

    def test_degree8_cubic_repeat_is_bit_identical(self, systems_dir):
        system = load_system(str(systems_dir / "cubic_3d_pair.sys"), {})
        program, _ = build_absorbing_program(
            system, ell=2, delta=1.0, degree=8, beta=0.0)
        problem = encode(program).problem
        a = solve(problem)
        b = solve(problem)
        assert a.status == b.status == "optimal"
        assert a.iterations == b.iterations
        assert abs(a.iterations - 15) <= 1
        assert a.objective == b.objective
        for Xa, Xb in zip(a.blocks, b.blocks):
            assert np.array_equal(Xa, Xb)


# The iteration as it ran block by block, before its iterate was held as
# per-size stacks: the references of TestStackedIteration.  An iterate is a
# namespace with per-block lists X and S and y, u, tau and kappa; the data
# come from the embedding's per-block records.


def _reference_opA(emb, Xs):
    out = np.zeros(emb.m)
    for rows, A, X in zip(emb.rows, emb.A, Xs):
        out[rows] += sdp._matmul(A, X.ravel())
    return out


def _reference_opAt(emb, y):
    """Per block, the transpose of A[b] as its own CSR on y[rows[b]]."""
    blocks = []
    for rows, A, s in zip(emb.rows, emb.A, emb.sizes):
        (mb, n), indptr, indices, data = A
        At = sdp._csr(indices, np.repeat(np.arange(mb), np.diff(indptr)),
                      data, (n, mb))
        blocks.append(sdp._matmul(At, y[rows]).reshape(s, s))
    return blocks


def _reference_residuals(emb, it):
    E1 = _reference_opA(emb, it.X) + (emb.D @ it.u if emb.f else 0.0) \
        - emb.b * it.tau
    At_y = _reference_opAt(emb, it.y)
    E2 = [At_y[b] + it.S[b] for b in range(len(it.X))]
    E3 = emb.D.T @ it.y - emb.g * it.tau
    E4 = float(emb.g @ it.u) - float(emb.b @ it.y) + it.kappa
    return E1, E2, E3, E4


def _reference_mu(emb, it):
    dots = sum(float(np.sum(it.X[b] * it.S[b])) for b in range(len(it.X)))
    return (dots + it.tau * it.kappa) / (emb.nu + 1)


def _reference_advance(it, alpha, d):
    for b in range(len(it.X)):
        it.X[b] = sdp._sym(it.X[b] + alpha * d.dX[b])
        it.S[b] = sdp._sym(it.S[b] + alpha * d.dS[b])
    it.y = it.y + alpha * d.dy
    it.u = it.u + alpha * d.du
    it.tau += alpha * d.dtau
    it.kappa += alpha * d.dkappa
    peak = max(it.tau, it.kappa,
               max(float(np.max(np.abs(X))) for X in it.X),
               max(float(np.max(np.abs(S))) for S in it.S),
               float(np.max(np.abs(it.y))) if len(it.y) else 0.0,
               float(np.max(np.abs(it.u))) if len(it.u) else 0.0)
    if not peak > 1e8:
        return 1.0
    inv = 1.0 / peak
    for b in range(len(it.X)):
        it.X[b] *= inv
        it.S[b] *= inv
    it.y *= inv
    it.u *= inv
    it.tau *= inv
    it.kappa *= inv
    return inv


def _reference_cone_factors(it):
    Lx = [np.linalg.cholesky(X) for X in it.X]
    Ls = [np.linalg.cholesky(S) for S in it.S]
    Sinv = [sdp.dpotrs(L, np.eye(len(L)), lower=1)[0] for L in Ls]
    return Lx, Ls, Sinv


def _reference_schur(emb, it, Sinv):
    B = np.zeros((emb.m, emb.m))
    for b, (s, rows, X, Si) in enumerate(zip(emb.sizes, emb.rows, it.X,
                                             Sinv)):
        mb = len(rows)
        if not mb:
            continue
        F = X @ sdp._matmul(emb.stack[b], Si).reshape(s, mb * s)
        F = F.reshape(s, mb, s).transpose(0, 2, 1).reshape(s * s, mb)
        B[np.ix_(rows, rows)] += sdp._matmul(emb.A[b], F)
    return sdp._sym(B)


def _reference_direction(emb, it, E, Sinv, newton, eta, tc, corrM, corr_tk):
    E1, E2, E3, E4 = E
    m = emb.m
    G = []
    for b in range(len(it.X)):
        Gb = tc * Sinv[b] - it.X[b] + eta * sdp._sym(it.X[b] @ E2[b] @ Sinv[b])
        if corrM is not None:
            Gb = Gb - corrM[b]
        G.append(Gb)
    e0 = (tc - it.tau * it.kappa - corr_tk) / it.tau
    h1 = -eta * E1 - _reference_opA(emb, G)
    h3 = -eta * E4 - e0
    p = sdp._kkt_solve(newton.K, newton.lu, np.concatenate([h1, -eta * E3]))
    q = newton.q
    den = float(emb.g @ q[m:]) - float(emb.b @ q[:m]) - it.kappa / it.tau
    num = h3 + float(emb.b @ p[:m]) - float(emb.g @ p[m:])
    dtau = num / den
    dy = p[:m] + dtau * q[:m]
    du = p[m:] + dtau * q[m:]
    At_dy = _reference_opAt(emb, dy)
    dS = [-eta * E2[b] - At_dy[b] for b in range(len(it.X))]
    dX = []
    for b in range(len(it.X)):
        M = tc * Sinv[b] - it.X[b] - sdp._sym(it.X[b] @ dS[b] @ Sinv[b])
        if corrM is not None:
            M = M - corrM[b]
        dX.append(sdp._sym(M))
    dkappa = e0 - (it.kappa / it.tau) * dtau
    return sdp._Direction(dX, du, dy, dS, dtau, dkappa)


def _reference_max_step_psd(L, dM):
    sdp._check_finite(L, dM)
    W = sdp._lower_solve(L, dM)
    sdp._check_finite(W)
    W = sdp._lower_solve(L, W.T).T
    lam = float(np.linalg.eigvalsh(sdp._sym(W))[0])
    if lam >= -1e-16:
        return np.inf
    return -1.0 / lam


def _reference_max_step(it, Lx, Ls, d):
    alpha = np.inf
    for b in range(len(it.X)):
        alpha = min(alpha, _reference_max_step_psd(Lx[b], d.dX[b]))
        alpha = min(alpha, _reference_max_step_psd(Ls[b], d.dS[b]))
    if d.dtau < 0:
        alpha = min(alpha, -it.tau / d.dtau)
    if d.dkappa < 0:
        alpha = min(alpha, -it.kappa / d.dkappa)
    return alpha


def _reference_search_direction(emb, it, E, mu, Lx, Ls, Sinv, newton):
    pred = _reference_direction(emb, it, E, Sinv, newton, 1.0, 0.0, None, 0.0)
    alpha = min(1.0, _reference_max_step(it, Lx, Ls, pred))
    dot = sum(
        float(np.sum((it.X[b] + alpha * pred.dX[b])
                     * (it.S[b] + alpha * pred.dS[b])))
        for b in range(len(it.X)))
    mu_aff = (dot + (it.tau + alpha * pred.dtau)
              * (it.kappa + alpha * pred.dkappa)) / (emb.nu + 1)
    sigma = min(max((mu_aff / mu) ** 3, 1e-10), 0.99999)
    corrM = [sdp._sym(pred.dX[b] @ pred.dS[b] @ Sinv[b])
             for b in range(len(it.X))]
    return _reference_direction(emb, it, E, Sinv, newton, 1.0 - sigma,
                                sigma * mu, corrM, pred.dtau * pred.dkappa)


class TestStackedIteration:
    """The iteration on per-size stacks returns the bytes of the iteration
    block by block (the _reference_* functions above) on random iterates
    of the blocks as solved: blocks of size 1, size groups of one, a block
    split into its components, and a single block."""

    SIZES = [(2, 1, 1, 2, 2), (3, 3, 3, 6, 6), (19, 20, 10, 34, 19), (5,)]

    @staticmethod
    def program(rng, sizes):
        """Random constraints, each on two blocks (one when there is one),
        independent, with two free scalars in the first rows."""
        m = min(12, sum(s * (s + 1) // 2 for s in sizes) - 1)
        builder = SdpProblemBuilder(sizes, n_free=2)
        for j in range(m):
            entries = {}
            for b in rng.choice(len(sizes), size=min(len(sizes), 2),
                                replace=False):
                s = sizes[b]
                entries[int(b)] = [(int(rng.integers(s)), int(rng.integers(s)),
                                    float(rng.normal())) for _ in range(3)]
            free = {j: float(rng.normal())} if j < 2 else {}
            builder.add_constraint(float(rng.normal()), entries, free)
        return builder.build()

    @staticmethod
    def same(got, expected):
        """Byte equality of two arrays, floats or per-block lists."""
        if isinstance(expected, list):
            return len(got) == len(expected) and all(
                TestStackedIteration.same(g, e) for g, e in zip(got, expected))
        return np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def assert_same_direction(self, emb, got, expected):
        for name in ("dX", "dS"):
            assert self.same(emb.unstack(getattr(got, name)),
                             getattr(expected, name)), name
        for name in ("dy", "du", "dtau", "dkappa"):
            assert self.same(getattr(got, name), getattr(expected, name)), name

    @pytest.mark.parametrize("name, ell, delta, degree, beta", [
        ("affine_pair.sys", 2, 1.0, 4, 3.3),
        ("vdp_relay_pair.sys", 1, 1e-4, 6, 14.0),
        ("cubic_3d_pair.sys", 2, 1.0, 6, 0.0),
        ("cubic_3d_pair.sys", 2, 1.0, 8, 0.0)])
    def test_schur_same_bits_as_block_by_block_on_decay_programs(
            self, systems_dir, name, ell, delta, degree, beta):
        # one bincount over every block's part adds into B in block order,
        # as the reference's B[np.ix_(rows, rows)] += per block does
        system = load_system(str(systems_dir / name))
        program, _ = build_absorbing_program(system, ell, delta, degree, beta)
        emb = sdp._Embedding(encode(program).problem)
        rng = np.random.default_rng(degree)
        it = types.SimpleNamespace(
            X=[random_pd(rng, s) / s for s in emb.sizes])
        Sinv = [np.asfortranarray(np.linalg.inv(random_pd(rng, s)))
                for s in emb.sizes]
        emb.X = stacked(emb, it.X)
        assert self.same(sdp._schur(emb, stacked(emb, Sinv)),
                         _reference_schur(emb, it, Sinv))

    @pytest.mark.parametrize("sizes", SIZES, ids=str)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_bits_as_block_by_block(self, sizes, seed):
        rng = np.random.default_rng(seed)
        emb = sdp._Embedding(self.program(rng, sizes))
        # the iterate lives on the blocks as solved: the random pattern of
        # the 34-wide block, at least SPLIT_WIDTH wide, falls apart into
        # many components
        sizes = emb.sizes
        it = types.SimpleNamespace(
            X=[random_pd(rng, s) / s for s in sizes],
            S=[random_pd(rng, s) / s for s in sizes],
            y=rng.normal(size=emb.m), u=rng.normal(size=emb.f),
            tau=float(rng.uniform(0.5, 2.0)), kappa=float(rng.uniform(0.5, 2.0)))
        emb.X, emb.S = stacked(emb, it.X), stacked(emb, it.S)
        emb.y, emb.u, emb.tau, emb.kappa = it.y.copy(), it.u.copy(), it.tau, \
            it.kappa

        E, E_ref = emb.residuals(), _reference_residuals(emb, it)
        assert self.same(E[0], E_ref[0])
        assert self.same(emb.unstack(E[1]), E_ref[1])
        assert self.same(E[2], E_ref[2]) and self.same(E[3], E_ref[3])
        mu = emb.mu()
        assert self.same(mu, _reference_mu(emb, it))

        Lx, Ls, Sinv = sdp._cone_factors(emb)
        Lx_ref, Ls_ref, Sinv_ref = _reference_cone_factors(it)
        assert self.same(emb.unstack(Lx), Lx_ref)
        assert self.same(emb.unstack(Ls), Ls_ref)
        assert self.same(emb.unstack(Sinv), Sinv_ref)
        assert all(Si.flags.f_contiguous for Si in emb.unstack(Sinv))
        newton = sdp._newton_system(emb, Lx, Ls, Sinv, 0.0)
        assert self.same(newton.K[:emb.m, :emb.m],
                         _reference_schur(emb, it, Sinv_ref))

        pred = sdp._direction(emb, E, newton, 1.0, 0.0, None, 0.0)
        pred_ref = _reference_direction(emb, it, E_ref, Sinv_ref, newton,
                                        1.0, 0.0, None, 0.0)
        self.assert_same_direction(emb, pred, pred_ref)
        assert self.same(sdp._max_step(emb, newton, pred),
                         _reference_max_step(it, Lx_ref, Ls_ref, pred_ref))

        d = sdp._search_direction(emb, E, mu, newton)
        d_ref = _reference_search_direction(emb, it, E_ref, mu, Lx_ref,
                                            Ls_ref, Sinv_ref, newton)
        self.assert_same_direction(emb, d, d_ref)
        alpha = sdp._step_length(emb, newton, d)
        assert self.same(alpha, min(1.0, sdp.STEP_SCALE * _reference_max_step(
            it, Lx_ref, Ls_ref, d_ref)))

        # one plain step, then one from an iterate scaled past the
        # renormalisation threshold
        for factor in (1.0, 1e9):
            emb.tau *= factor
            it.tau *= factor
            assert self.same(emb.advance(alpha, d),
                             _reference_advance(it, alpha, d_ref))
            assert self.same(emb.unstack(emb.X), it.X)
            assert self.same(emb.unstack(emb.S), it.S)
            for name in ("y", "u", "tau", "kappa"):
                assert self.same(getattr(emb, name), getattr(it, name)), name
            E, E_ref = emb.residuals(), _reference_residuals(emb, it)
            assert self.same(E[0], E_ref[0])
            assert self.same(emb.unstack(E[1]), E_ref[1])
            assert self.same(emb.mu(), _reference_mu(emb, it))


def _pattern(problem, block):
    """The rows and columns of every entry of a block, over all
    constraints."""
    ents = [ent for per_con in problem.entries for ent in per_con
            if ent.block == block]
    return (np.concatenate([ent.rows for ent in ents]),
            np.concatenate([ent.cols for ent in ents]))


class TestBlockSplit:
    """A block at least SPLIT_WIDTH wide is solved as the components of
    its constraint pattern; the solution is reported on the blocks as
    posed."""

    # a wide block whose pattern falls into two interleaved classes, the
    # wider one first, and a narrow block
    WIDTH = sdp.SPLIT_WIDTH + 4
    PARTS = (np.setdiff1d(np.arange(WIDTH), np.arange(2, WIDTH, 3)),
             np.arange(2, WIDTH, 3))

    def program(self, separate):
        """Planted constraints within one class each, plus one row that
        sets the free scalar t to <C, X> with C block-diagonal over the
        classes; the objective is t.  separate poses each class as a block
        of its own."""
        rng = np.random.default_rng(5)
        Rs = [random_pd(rng, len(idx)) for idx in self.PARTS]
        R_small = random_pd(rng, 3)
        if separate:
            builder = SdpProblemBuilder([len(idx) for idx in self.PARTS]
                                        + [3], n_free=1)
            place = [(k, np.arange(len(idx)))
                     for k, idx in enumerate(self.PARTS)]
            small = len(self.PARTS)
        else:
            builder = SdpProblemBuilder([self.WIDTH, 3], n_free=1)
            place = [(0, idx) for idx in self.PARTS]
            small = 1
        builder.set_objective_free([1.0])

        def entries(k, M):
            """The upper triangle of M on class k, as posed."""
            b, idx = place[k]
            i, j = np.triu_indices(len(M))
            return b, [(idx[a], idx[c], M[a, c]) for a, c in zip(i, j)]

        for j in range(24):
            k = j % 2
            A = sdp._sym(rng.normal(size=Rs[k].shape))
            A[rng.uniform(size=A.shape) < 0.7] = 0.0
            A = sdp._sym(A)
            b, triplets = entries(k, A)
            E = sdp._sym(rng.normal(size=(3, 3)))
            rhs = float(np.sum(A * Rs[k]) + np.sum(E * R_small))
            builder.add_constraint(rhs, {b: triplets, small: [
                (i, c, E[i, c]) for i in range(3) for c in range(i, 3)]})
        row = {}
        for k, R in enumerate(Rs):
            C = sdp._sym(rng.normal(size=R.shape)) + len(R) * np.eye(len(R))
            b, triplets = entries(k, C)
            row.setdefault(b, []).extend(triplets)
        builder.add_constraint(0.0, row, {0: -1.0})
        return builder.build()

    def test_same_solution_as_separate_blocks(self):
        posed, separate = self.program(False), self.program(True)
        emb = sdp._Embedding(posed)
        assert [[idx.tolist() for _, idx in part] for part in emb.parts] == \
            [[idx.tolist() for idx in self.PARTS], [[0, 1, 2]]]
        assert emb.sizes == separate.block_sizes

        got, expected = solve(posed), solve(separate)
        assert got.status == expected.status == "optimal"
        assert got.objective == pytest.approx(expected.objective, rel=1e-9)
        assert got.solved_sizes == ((len(self.PARTS[0]), len(self.PARTS[1])),
                                    (3,))
        assert expected.solved_sizes == ((len(self.PARTS[0]),),
                                         (len(self.PARTS[1]),), (3,))
        X = got.blocks[0]
        assert X.shape == (self.WIDTH, self.WIDTH)
        A, B = self.PARTS
        assert np.all(X[np.ix_(A, B)] == 0.0)
        assert np.all(X[np.ix_(B, A)] == 0.0)
        assert got.min_eigenvalues[0] == min(
            min_eigenvalue(X[np.ix_(idx, idx)]) for idx in self.PARTS)
        assert got.min_eigenvalues[1] == min_eigenvalue(got.blocks[1])

    def test_ray_holds_on_the_posed_data(self):
        # the trace of one class pinned at -1: no PSD point exists
        A, B = self.PARTS
        builder = SdpProblemBuilder([self.WIDTH])
        builder.add_constraint(-1.0, {0: [(i, i, 1.0) for i in A]})
        # two more rows, each chaining one class together
        builder.add_constraint(0.5, {0: [(i, k, 1.0) for i, k in zip(A, A[1:])]
                                     + [(B[0], B[0], 2.0)]})
        builder.add_constraint(2.0, {0: [(i, i, 1.0) for i in B]
                                     + [(i, k, 0.5) for i, k in zip(B, B[1:])]})
        problem = builder.build()
        solution = solve(problem)
        assert solution.status == "infeasible"
        assert solution.solved_sizes == ((len(A), len(B)),)
        y = solution.certificate["ray_y"]
        dense, = dense_constraints(problem, np.ones(problem.m))
        assert float(problem.rhs @ y) > 0
        assert min_eigenvalue(-np.einsum("k,kij->ij", y, dense)) >= \
            -sdp.RAY_TOL

    @pytest.mark.parametrize("degree", [6, 8])
    def test_components_are_the_parity_classes(self, systems_dir, degree):
        # the sign symmetries of the cubic pair give each Gram block its
        # classes (sosprog), the constraint pattern its components (sdp)
        from switchcert.sosprog import parity_classes
        system = load_system(str(systems_dir / "cubic_3d_pair.sys"))
        program, _ = build_absorbing_program(
            system, ell=2, delta=1.0, degree=degree, beta=0.0)
        encoding = encode(program)
        problem = encoding.problem
        emb = sdp._Embedding(problem)
        split = 0
        for b, s in enumerate(problem.block_sizes):
            classes = parity_classes(encoding.bases[b], encoding.parity_span)
            by_class = sorted((np.flatnonzero(classes == c).tolist()
                               for c in set(classes.tolist())))
            comps = sdp._components(s, *_pattern(problem, b))
            assert [idx.tolist() for idx in comps] == by_class
            parts = [idx.tolist() for _, idx in emb.parts[b]]
            if s >= sdp.SPLIT_WIDTH:
                assert parts == by_class
                split += len(parts) > 1
            else:
                assert parts == [list(range(s))]
        assert split == (1 if degree == 6 else 4)

    def test_wide_block_with_fewer_entries_than_indices(self):
        # two entries on a wide block: every index is a component, and the
        # indices no constraint touches are free
        builder = SdpProblemBuilder([self.WIDTH])
        builder.add_constraint(1.0, {0: [(0, 0, 1.0)]})
        builder.add_constraint(2.0, {0: [(self.WIDTH - 1,) * 2 + (1.0,)]})
        solution = solve(builder.build())
        assert solution.status == "optimal"
        assert solution.solved_sizes == ((1,) * self.WIDTH,)
        X = solution.blocks[0]
        assert X[0, 0] == pytest.approx(1.0) and X[-1, -1] == pytest.approx(2.0)
        assert np.all(X[~np.eye(self.WIDTH, dtype=bool)] == 0.0)

    def test_narrow_blocks_iterate_as_posed(self):
        # every index its own component, yet no block is wide enough
        sizes = (sdp.SPLIT_WIDTH - 1, 4)
        builder = SdpProblemBuilder(sizes)
        for b, s in enumerate(sizes):
            for i in range(s):
                builder.add_constraint(1.0 + i, {b: [(i, i, 1.0)]})
        problem = builder.build()
        assert len(sdp._components(sizes[0], *_pattern(problem, 0))) == \
            sizes[0]
        emb = sdp._Embedding(problem)
        assert emb.sizes == sizes
        assert [len(part) for part in emb.parts] == [1, 1]
        solution = solve(problem)
        assert solution.status == "optimal"
        assert solution.solved_sizes == ((sizes[0],), (sizes[1],))
        assert np.allclose(solution.blocks[0],
                           np.diag(1.0 + np.arange(sizes[0])), atol=1e-6)


class TestRowNorms:
    def test_huge_row_has_a_finite_norm(self):
        # the squares of 1e200 overflow, so that row's norm comes from its
        # entries divided by its largest magnitude; the other row keeps its
        # plain sum of squares (an off-diagonal entry counts twice)
        builder = SdpProblemBuilder([2], n_free=1)
        builder.add_constraint(1.0, {0: [(0, 0, 1e200), (0, 1, 1e200)]},
                               {0: 1e200})
        builder.add_constraint(1.0, {0: [(1, 1, 3.0), (0, 1, 2.0)]},
                               {0: 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm, scale, *_ = sdp._scaled_constraints(builder.build())
        assert norm[0] == pytest.approx(2e200, rel=1e-15)
        assert scale[0] * norm[0] == pytest.approx(1.0, rel=1e-15)
        assert norm[1] == np.sqrt(18.0)


def _program(systems_dir, name):
    if name == "sublevel_affine_pair":
        V = parse_expression(V_AFFINE_PAIR, 2)
        program = _sublevel_program(V, BETA_AFFINE_PAIR,
                                    _multiplier_degree(V.degree()))
    elif name == "cubic_decay_degree8":
        system = load_system(str(systems_dir / "cubic_3d_pair.sys"))
        program, _ = build_absorbing_program(
            system, ell=2, delta=1.0, degree=8, beta=0.0)
    else:
        system = load_system(str(systems_dir / "linear_pair.sys"),
                             {"b": 12.0})
        program, _ = build_absorbing_program(
            system, ell=6, delta=1e-3, degree=12, beta=0.0)
    return encode(program).problem


class TestReportedOnOriginalData:
    """The primal residual and objective of a solution, read off the scaled
    iterate, against a dense evaluation of the original problem data."""

    @staticmethod
    def reference(problem, blocks, free, C=None):
        """The residual and the objective, <C, X_0> when a block objective
        C is given, else g . u."""
        A = dense_constraints(problem, np.ones(problem.m))
        D = np.zeros((problem.m, problem.n_free))
        for j, (idx, vals) in enumerate(problem.free_rows):
            D[j, idx] = vals
        value = sum(np.einsum("kij,ij->k", A_b, X)
                    for A_b, X in zip(A, blocks)) + D @ free
        norm = np.sqrt(sum(np.sum(A_b ** 2, axis=(1, 2)) for A_b in A)
                       + np.sum(D ** 2, axis=1))
        residual = np.max(np.abs(value - problem.rhs)
                          / (1.0 + np.maximum(np.abs(problem.rhs), norm)))
        if C is not None:
            return residual, float(np.sum(C * blocks[0]))
        return residual, problem.obj_free @ free

    @pytest.mark.parametrize("case", [
        "planted_46", "planted_47", "planted_objective",
        "sublevel_affine_pair", "cubic_decay_degree8", "gas_b12_mu_floor"])
    def test_against_dense_reference(self, systems_dir, case):
        C = None
        if case.startswith("planted_"):
            rng = np.random.default_rng(46 if case == "planted_46" else 47)
            problem = planted_feasible(rng, 6, 12)
            if case == "planted_objective":
                # the constraints of planted_47 and a block objective
                C = sdp._sym(rng.normal(size=(6, 6)))
                problem = planted_feasible(np.random.default_rng(47), 6, 12,
                                           objective=C)
        else:
            problem = _program(systems_dir, case)
        if case == "gas_b12_mu_floor":
            # the attempt stops at the mu floor and keeps its iterate
            solution = sdp._solve(problem)
            assert solution.message == \
                f"feasible point accepted ({sdp._MU_FLOOR})"
        else:
            solution = solve(problem)
            assert solution.status == "optimal"
        assert solution.blocks is not None
        residual, objective = self.reference(problem, solution.blocks,
                                             solution.free, C)
        assert isinstance(solution.objective, float)
        assert abs(solution.primal_residual - residual) <= \
            1e-12 + 1e-5 * residual
        assert abs(solution.objective - objective) <= \
            1e-12 + 1e-5 * abs(objective)


def _reference_independent(emb):
    """The dependence test as it ran before the first iteration: the
    Cholesky factor of sum_b A_b A_b^T + D D^T from densified blocks."""
    gram = emb.D @ emb.D.T
    for rows, A in zip(emb.rows, emb.A):
        (mb, n), indptr, indices, data = A
        dense = np.zeros((n, mb))
        dense[indices, np.repeat(np.arange(mb), np.diff(indptr))] = data
        gram[np.ix_(rows, rows)] += sdp._matmul(A, dense)
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return float(np.min(np.diag(L))) ** 2 > emb.m * np.finfo(float).eps


class TestDependentConstraints:
    """Linearly dependent constraints make the unshifted KKT matrix
    singular, so their one attempt runs with DEPENDENT_SHIFT."""

    def test_singular_kkt_is_a_breakdown(self):
        K = np.array([[1.0, 1.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu = sla.lu_factor(K)
        with pytest.raises(sdp._Breakdown, match=sdp._SINGULAR):
            sdp._kkt_solve(K, lu, np.array([1.0, 0.0]))

    @staticmethod
    def dependent_program():
        """Four constraints on one 3x3 block, the last the first plus twice
        the second."""
        rng = np.random.default_rng(0)
        R_star = random_pd(rng, 3)
        rows = [rng.normal(size=(3, 3)) for _ in range(3)]
        rows = [0.5 * (A + A.T) for A in rows]
        rows.append(rows[0] + 2.0 * rows[1])
        builder = SdpProblemBuilder([3])
        for A in rows:
            builder.add_constraint(
                float(np.sum(A * R_star)),
                {0: [(i, j, A[i, j]) for i in range(3) for j in range(i, 3)]})
        return builder.build()

    def test_one_attempt_with_the_shift(self, monkeypatch):
        attempts = record_attempts(monkeypatch)
        solution = solve(self.dependent_program())
        assert solution.status == "optimal"
        assert attempts == [{sdp.DEPENDENT_SHIFT}]

    @pytest.mark.parametrize("dependent", [True, False])
    def test_first_schur_complement_decides_as_the_dense_gram(self,
                                                              dependent):
        # the independent program holds two free scalars, so D D^T counts
        problem = self.dependent_program() if dependent else \
            TestStackedIteration.program(np.random.default_rng(3), (3, 3, 6))
        emb = sdp._Embedding(problem)
        newton = sdp._newton_system(emb, *sdp._cone_factors(emb), None)
        assert newton.shift == (sdp.DEPENDENT_SHIFT if dependent else 0.0)
        assert newton.shift == \
            (0.0 if _reference_independent(emb) else sdp.DEPENDENT_SHIFT)


class TestDirectLapack:
    """The iteration calls dtrtrs, dpotrs, dgetrf and dgetrs directly.  Its
    results are the bits of scipy.linalg's wrappers around them, and the
    wrappers' checks on non-finite input and singular factors still hold."""

    SIZES = [1, 2, 3, 7, 15, 35, 70]

    @pytest.mark.parametrize("size", SIZES)
    def test_step_search_matches_solve_triangular(self, size):
        rng = np.random.default_rng(size)
        L = np.linalg.cholesky(random_pd(rng, size))
        dM = sdp._sym(rng.normal(size=(size, size))) - 3.0 * np.eye(size)
        W = sla.solve_triangular(L, dM, lower=True)
        W = sla.solve_triangular(L, W.T, lower=True).T
        lam = float(np.linalg.eigvalsh(sdp._sym(W))[0])
        assert lam < -1e-16
        # a one-matrix stack is the per-block view of the step search
        assert sdp._max_step_psd(L[None], dM[None]) == -1.0 / lam

    @pytest.mark.parametrize("size", SIZES)
    def test_cone_inverse_matches_cho_solve(self, size):
        rng = np.random.default_rng(size)
        emb = types.SimpleNamespace(X=[random_pd(rng, size)[None]],
                                    S=[random_pd(rng, size)[None]])
        _, Ls, Sinv = sdp._cone_factors(emb)
        expected = sla.cho_solve((Ls[0][0], True), np.eye(size))
        assert np.array_equal(Sinv[0][0], expected)
        # the layout feeds the Schur gemms, whose bits could depend on it
        assert Sinv[0][0].flags.f_contiguous == expected.flags.f_contiguous

    @staticmethod
    def newton(monkeypatch, B, D):
        """_newton_system on a stub embedding whose Schur complement is B
        and whose free-scalar columns are D; returns it with its rhs."""
        m, f = D.shape
        rng = np.random.default_rng(m)
        emb = types.SimpleNamespace(m=m, f=f, D=D, b=rng.normal(size=m),
                                    g=rng.normal(size=f))
        monkeypatch.setattr(sdp, "_schur", lambda emb, Sinv: B)
        newton = sdp._newton_system(emb, None, None, None, 0.0)
        return newton, np.concatenate([emb.b, emb.g])

    @pytest.mark.parametrize("size", SIZES)
    def test_kkt_factor_and_solve_match_lu_wrappers(self, size, monkeypatch):
        rng = np.random.default_rng(size)
        B = random_pd(rng, size)
        D = rng.normal(size=(size, min(size, 3)))
        newton, rhs = self.newton(monkeypatch, B, D)
        K = np.block([[B, D], [D.T, np.zeros((D.shape[1],) * 2)]])
        assert np.array_equal(newton.K, K)
        lu = sla.lu_factor(K)
        assert np.array_equal(newton.lu[0], lu[0])
        assert np.array_equal(newton.lu[1], lu[1])

        def refined(r):
            sol = sla.lu_solve(lu, r, check_finite=False)
            return sol + sla.lu_solve(lu, r - K @ sol, check_finite=False)

        assert np.array_equal(newton.q, refined(rhs))
        other = rng.normal(size=len(K))
        assert np.array_equal(sdp._kkt_solve(newton.K, newton.lu, other),
                              refined(other))

    def test_singular_kkt_is_a_silent_breakdown(self, monkeypatch):
        B = np.array([[1.0, 1.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sdp._Breakdown, match=sdp._SINGULAR):
                self.newton(monkeypatch, B, np.zeros((2, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kkt_fails_factorisation(self, monkeypatch, bad):
        B = random_pd(np.random.default_rng(0), 3)
        B[0, 1] = B[1, 0] = bad
        with pytest.raises(sdp._Breakdown, match="KKT factorisation failed"):
            self.newton(monkeypatch, B, np.ones((3, 1)))

    def test_nan_direction_in_every_attempt_fails(self, monkeypatch):
        # the step search's finite check raises the wrappers' ValueError,
        # not a _Breakdown, whose stopped point the end-of-attempt bar
        # could accept as feasible
        attempts = record_attempts(monkeypatch)
        inner = sdp._direction

        def direction(*args):
            d = inner(*args)
            d.dX[0][0, 0, 0] = np.nan
            return d

        monkeypatch.setattr(sdp, "_direction", direction)
        solution = solve(planted_feasible(np.random.default_rng(0), 3, 4))
        assert attempts == [{0.0}]
        assert solution.status == "numerical-failure"
        assert solution.message == \
            "linear algebra failure: array must not contain infs or NaNs"
        assert solution.blocks is None


class TestDirectKernels:
    """The iteration calls scipy's sparsetools kernels and numpy's LAPACK
    gufuncs directly.  Their results are the bits of scipy.sparse's
    products and of np.linalg.cholesky and np.linalg.eigvalsh, and a failed
    factorisation raises np.linalg.LinAlgError without a warning.  These
    tests fail first if a numpy or scipy release moves the private modules
    that hold the kernels, or scipy moves the files sdp loads its compiled
    modules from."""

    @staticmethod
    def operator(rng, shape):
        """A CSR record with rows 0 and 3 empty and the other rows' entries
        unsorted, some repeated, and the scipy.sparse matrix of the same
        arrays."""
        n = 3 * shape[0]
        rows = rng.choice([r for r in range(shape[0]) if r not in (0, 3)],
                          size=n)
        cols = rng.integers(shape[1], size=n)
        vals = rng.normal(size=n)
        op = sdp._csr(rows, cols, vals, shape)
        matrix = sparse.csr_matrix((op.data, op.indices, op.indptr),
                                   shape=shape)
        return op, matrix, (rows, cols, vals)

    @pytest.mark.parametrize("shape", [(6, 4), (9, 25), (40, 7)])
    def test_csr_record(self, shape):
        op, matrix, (rows, cols, vals) = self.operator(
            np.random.default_rng(shape[0]), shape)
        assert op.shape == shape
        # the index type scipy.sparse keeps for these arrays
        assert op.indices.dtype == op.indptr.dtype == np.int32
        assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
        dense = np.zeros(shape)
        np.add.at(dense, (rows, cols), vals)
        assert np.allclose(matrix.toarray(), dense, rtol=1e-15, atol=1e-15)
        # each row keeps its entries in the given order
        for r in range(shape[0]):
            span = slice(op.indptr[r], op.indptr[r + 1])
            assert np.array_equal(op.indices[span], cols[rows == r])
            assert np.array_equal(op.data[span], vals[rows == r])

    def test_csr_record_beyond_int32(self):
        # scipy.sparse keeps int64 indices once a dimension outgrows int32
        shape = (3, 2 ** 31)
        op = sdp._csr(np.array([2, 0]), np.array([2 ** 31 - 1, 5]),
                      np.array([1.0, 2.0]), shape)
        matrix = sparse.csr_matrix((op.data, op.indices, op.indptr),
                                   shape=shape)
        assert op.indices.dtype == op.indptr.dtype == np.int64
        assert matrix.indices.dtype == np.int64
        assert op.indptr.tolist() == [0, 1, 1, 2]
        assert op.indices.tolist() == [5, 2 ** 31 - 1]

    @pytest.mark.parametrize("shape", [(6, 4), (9, 25), (40, 7)])
    @pytest.mark.parametrize("columns", [None, 1, 2, 5])
    def test_matmul_matches_scipy(self, shape, columns):
        rng = np.random.default_rng(shape[0] + (columns or 0))
        op, matrix, _ = self.operator(rng, shape)
        size = (shape[1],) if columns is None else (shape[1], columns)
        x = rng.normal(size=size)
        got = sdp._matmul(op, x)
        expected = matrix @ x
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert not got[0].any() and not got[3].any()
        # numpy's Fortran-ordered results (S^-1 from dpotrs) go in as well
        f_ordered = np.asfortranarray(x)
        assert np.array_equal(sdp._matmul(op, f_ordered), matrix @ f_ordered)

    @pytest.mark.parametrize("size", [(3,), (5,), (5, 2)])
    def test_matmul_rejects_a_wrong_length(self, size):
        op, matrix, _ = self.operator(np.random.default_rng(0), (6, 4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            matrix @ np.ones(size)
        with pytest.raises(ValueError, match=f"{size[0]} rows against 4"):
            sdp._matmul(op, np.ones(size))

    @pytest.mark.parametrize("size", TestDirectLapack.SIZES)
    def test_cholesky_matches_numpy(self, size):
        rng = np.random.default_rng(size)
        Ms = [random_pd(rng, size) for _ in range(2)]
        got = sdp._cholesky(*Ms)
        assert len(got) == 2
        for L, M in zip(got, Ms):
            expected = np.linalg.cholesky(M)
            assert np.array_equal(L, expected)
            assert L.flags.c_contiguous == expected.flags.c_contiguous

    @pytest.mark.parametrize("size", TestDirectLapack.SIZES)
    def test_eigvalsh_matches_numpy(self, size):
        rng = np.random.default_rng(size)
        M = sdp._sym(rng.normal(size=(size, size)))
        assert np.array_equal(sdp._eigvalsh(M), np.linalg.eigvalsh(M))

    @staticmethod
    def outcome(f, M):
        """The result of f(M), or its exception type and text, with every
        warning an error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return f(M)
            except Exception as exc:
                return type(exc), str(exc)

    @pytest.mark.parametrize("bad", ["indefinite", "nan", "nan_pivot"])
    def test_failures_match_numpy(self, bad):
        M = {"indefinite": np.array([[1.0, 2.0], [2.0, 1.0]]),
             "nan": np.full((3, 3), np.nan),
             "nan_pivot": np.array([[2.0, 1.0], [1.0, np.nan]])}[bad]
        for ours, numpys in [(lambda M: sdp._cholesky(M)[0],
                              np.linalg.cholesky),
                             (sdp._eigvalsh, np.linalg.eigvalsh)]:
            got, expected = self.outcome(ours, M), self.outcome(numpys, M)
            if isinstance(expected, tuple):
                assert got == expected
            else:
                assert np.array_equal(got, expected, equal_nan=True)

    def test_indefinite_and_nan_raise_without_warning(self):
        # numpy's cholesky returns NaN factors for a NaN matrix, so the
        # solver's finite checks, not the factorisation, catch those
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError,
                               match="not positive definite"):
                sdp._cholesky(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
            with pytest.raises(np.linalg.LinAlgError,
                               match="did not converge"):
                sdp._eigvalsh(np.full((3, 3), np.nan))
            assert np.isnan(sdp._cholesky(np.full((3, 3), np.nan))[0]).any()

    def test_indefinite_cone_is_a_breakdown(self):
        emb = types.SimpleNamespace(X=[np.eye(2)[None]],
                                    S=[np.array([[[1.0, 2.0], [2.0, 1.0]]])])
        with pytest.raises(sdp._Breakdown, match="cone factorisation failed"):
            sdp._cone_factors(emb)

    def test_nan_cone_fails_the_finite_check(self):
        emb = types.SimpleNamespace(X=[np.eye(2)[None]],
                                    S=[np.full((1, 2, 2), np.nan)])
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            sdp._cone_factors(emb)


class TestColdStart:
    """sdp loads scipy's compiled modules _sparsetools and _flapack from
    their files, so importing switchcert runs no scipy package's __init__.
    Import state belongs to the process, so each test runs in its own."""

    @staticmethod
    def run(code):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                              capture_output=True, text=True, env=env,
                              timeout=300)

    def check(self, code):
        run = self.run(code)
        assert run.returncode == 0, run.stderr
        return run.stdout

    @pytest.mark.parametrize("module", ["switchcert", "switchcert.cli"])
    def test_import_loads_no_scipy_module(self, module):
        assert self.check(f"""
            import sys, {module}
            print(sorted(m for m in sys.modules
                         if m == "scipy" or m.startswith("scipy.")))
            """) == "[]\n"

    def test_later_scipy_import_works(self):
        self.check("""
            import numpy as np
            from switchcert import sdp
            import scipy.linalg, scipy.sparse
            assert scipy.linalg._flapack.dgetrf is sdp.dgetrf
            assert scipy.linalg.lapack.dpotrs is sdp.dpotrs
            assert scipy.sparse._sparsetools.csr_matvec is sdp.csr_matvec
            a = np.array([[2.0, 1.0], [1.0, 3.0]])
            lu, piv = scipy.linalg.lu_factor(a)
            assert np.allclose(scipy.linalg.lu_solve((lu, piv), a), np.eye(2))
            assert np.array_equal(scipy.sparse.csr_matrix(a) @ np.ones(2),
                                  [3.0, 4.0])
            """)

    def test_scipy_imported_first_is_reused(self):
        self.check("""
            import sys
            import scipy.linalg, scipy.sparse
            from switchcert import sdp
            assert sdp._flapack is scipy.linalg._flapack
            assert sdp._sparsetools is scipy.sparse._sparsetools
            # scipy's own entries stay
            assert sys.modules["scipy.linalg._flapack"] is sdp._flapack
            assert sys.modules["scipy.sparse._sparsetools"] is sdp._sparsetools
            """)

    def test_same_openblas_controls_as_after_scipy(self):
        # scipy's OpenBLAS is mapped once _flapack is loaded, so solve pins
        # the same libraries however scipy's modules came in
        counts = [self.check(f"""
            {first}
            from switchcert import sdp
            print(len(sdp._openblas_controls()))
            """) for first in ("", "import scipy.linalg")]
        assert counts[0] == counts[1]

    def test_missing_file_names_the_module(self):
        run = self.run("""
            import importlib.machinery
            importlib.machinery.EXTENSION_SUFFIXES[:] = [".missing"]
            import switchcert
            """)
        assert run.returncode != 0
        last = run.stderr.strip().splitlines()[-1]
        assert last.startswith("ImportError: cannot load "
                               "scipy.sparse._sparsetools: no compiled "
                               "module _sparsetools in ")
        assert last.endswith(os.path.join("scipy", "sparse"))


class TestAttemptList:
    """The degree-12 homogeneous GAS decay program of the linear pair at
    b = 12 exhausts complementarity at a primal residual of about 2.8e-7,
    short of TOL = 1e-7; the end-of-attempt bar of RELAXED_TOL = 1e-6
    accepts that point.  Its rows are independent, so solve makes its one
    attempt without a KKT shift."""

    @pytest.fixture(scope="class")
    def gas_b12(self, systems_dir):
        system = load_system(str(systems_dir / "linear_pair.sys"), {"b": 12.0})
        program, _ = build_absorbing_program(
            system, ell=6, delta=1e-3, degree=12, beta=0.0)
        return encode(program).problem

    def test_mu_floor_point_accepted(self, gas_b12):
        solution = solve(gas_b12)
        assert solution.status == "feasible"
        assert solution.message == f"feasible point accepted ({sdp._MU_FLOOR})"
        assert abs(solution.iterations - 19) <= 1
        assert sdp.TOL < solution.primal_residual <= sdp.RELAXED_TOL

    def test_mu_floor_skips_regularisations(self, gas_b12, monkeypatch):
        attempts = record_attempts(monkeypatch)
        solve(gas_b12)
        assert attempts == [{0.0}]

    def test_mu_floor_fails_above_the_bar(self, gas_b12, monkeypatch):
        # below the point's residual the bar rejects it, and the one
        # attempt still decides the solve
        monkeypatch.setattr(sdp, "RELAXED_TOL", 2e-7)
        attempts = record_attempts(monkeypatch)
        solution = solve(gas_b12)
        assert solution.status == "numerical-failure"
        assert solution.message == sdp._MU_FLOOR
        assert attempts == [{0.0}]

    def test_van_der_pol_stopped_point_accepted(self, systems_dir,
                                                monkeypatch):
        # the tighten_beta probe at beta = 12.25 (ell = 1, delta = 1e-4,
        # degree 6, m = 41) stops at the mu floor at a feasible point
        system = load_system(str(systems_dir / "vdp_relay_pair.sys"))
        program, _ = build_absorbing_program(
            system, ell=1, delta=1e-4, degree=6, beta=12.25)
        problem = encode(program).problem
        assert problem.m == 41
        attempts = record_attempts(monkeypatch)
        solution = solve(problem)
        assert solution.status == "feasible"
        assert solution.message == f"feasible point accepted ({sdp._MU_FLOOR})"
        assert solution.primal_residual <= sdp.RELAXED_TOL
        assert min(solution.min_eigenvalues) >= -sdp.PSD_TOL
        assert attempts == [{0.0}]

    def test_mu_floor_point_below_the_psd_bar_fails(self, gas_b12,
                                                    monkeypatch):
        # the stopped point meets the residual bar, so the PSD bar decides,
        # and the message keeps the reason the iteration stopped
        monkeypatch.setattr(sdp, "min_eigenvalue", lambda M: -1e-6)
        solution = solve(gas_b12)
        assert solution.status == "numerical-failure"
        assert solution.message == ("point not PSD: smallest block "
                                    "eigenvalue -1.000e-06 below -1e-08 "
                                    f"({sdp._MU_FLOOR})")


class TestPsdBar:
    """One PSD bar, smallest block eigenvalue at least -PSD_TOL, holds for
    every point solve reports as a solution, converged ones included."""

    def problem(self):
        builder = SdpProblemBuilder([2])
        builder.add_constraint(1.0, {0: [(0, 0, 1.0)]})
        builder.add_constraint(1.0, {0: [(1, 1, 1.0)]})
        return builder.build()

    def test_converged_point_below_the_bar_fails(self, monkeypatch):
        assert solve(self.problem()).status == "optimal"
        monkeypatch.setattr(sdp, "min_eigenvalue",
                            lambda M: -10.0 * sdp.PSD_TOL)
        solution = solve(self.problem())
        assert solution.status == "numerical-failure"
        assert not solution.feasible
        assert solution.message == ("point not PSD: smallest block "
                                    "eigenvalue -1.000e-07 below -1e-08")
        assert solution.min_eigenvalues == [-10.0 * sdp.PSD_TOL]

    def test_converged_point_at_the_bar_is_optimal(self, monkeypatch):
        monkeypatch.setattr(sdp, "min_eigenvalue", lambda M: -sdp.PSD_TOL)
        assert solve(self.problem()).status == "optimal"


class TestUnboundedPrimal:
    def test_dual_infeasibility_ray_ends_the_walk(self, monkeypatch):
        # minimise -X[1,1] with only X[0,0] fixed: the ray is judged
        # against the fixed RAY_TOL in the one attempt
        builder = SdpProblemBuilder([2])
        builder.set_objective_block(0, np.diag([0.0, -1.0]))
        builder.add_constraint(1.0, {0: [(0, 0, 1.0)]})
        attempts = record_attempts(monkeypatch)
        solution = solve(builder.build())
        assert solution.status == "numerical-failure"
        assert solution.message.startswith("primal appears unbounded")
        assert attempts == [{0.0}]


class TestOneBlasThread:
    """solve runs its attempt with each loaded OpenBLAS on one thread:
    numpy's and scipy's pools spin against each other otherwise.  The
    caller's thread counts come back when solve returns or raises."""

    @pytest.fixture
    def controls(self):
        controls = sdp._openblas_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread control found")
        saved = [get() for get, _ in controls]
        for _, put in controls:
            put(2)
        yield controls
        for (_, put), count in zip(controls, saved):
            put(count)

    @staticmethod
    def counts(controls):
        return [get() for get, _ in controls]

    def test_attempts_run_on_one_thread(self, controls, monkeypatch):
        seen = []
        inner = sdp._solve

        def recording(problem):
            seen.append(self.counts(controls))
            return inner(problem)

        monkeypatch.setattr(sdp, "_solve", recording)
        problem = planted_feasible(np.random.default_rng(0), 3, 4)
        assert solve(problem).status == "optimal"
        assert seen and all(c == [1] * len(controls) for c in seen)
        assert self.counts(controls) == [2] * len(controls)

    def test_counts_restored_when_solve_raises(self, controls, monkeypatch):
        def failing(problem):
            raise RuntimeError("attempt aborted")

        monkeypatch.setattr(sdp, "_solve", failing)
        problem = planted_feasible(np.random.default_rng(0), 3, 4)
        with pytest.raises(RuntimeError, match="attempt aborted"):
            solve(problem)
        assert self.counts(controls) == [2] * len(controls)

    def test_overlapping_solves_share_one_pin(self, controls, monkeypatch):
        # the first solve to leave must not restore the counts under one
        # still running, and the last must restore the caller's
        seen = []
        inner = sdp._solve

        def recording(problem):
            seen.append(self.counts(controls))
            return inner(problem)

        monkeypatch.setattr(sdp, "_solve", recording)
        problems = [planted_feasible(np.random.default_rng(k), 3, 4)
                    for k in range(6)]
        statuses = []

        def worker(problem):
            for _ in range(3):
                statuses.append(solve(problem).status)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(problem,))
                       for problem in problems]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert statuses == ["optimal"] * 18
        assert len(seen) >= 18
        assert all(c == [1] * len(controls) for c in seen)
        assert self.counts(controls) == [2] * len(controls)


class TestWarningFilters:
    def test_overlapping_solves_leave_the_filters_alone(self):
        # the iteration sets no warning filter: warnings.catch_warnings is
        # not thread-safe, and overlapping solves once left a global
        # "ignore every warning" filter behind
        before = list(warnings.filters)
        problems = [planted_feasible(np.random.default_rng(k), 6, 12)
                    for k in range(6)]
        statuses = []

        def worker(problem):
            for _ in range(3):
                statuses.append(solve(problem).status)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(problem,))
                       for problem in problems]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert statuses == ["optimal"] * 18
        assert warnings.filters == before


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
        solution = solve(builder.build())
        margin = min(solution.min_eigenvalues) - sdp.PSD_TOL
        assert margin == pytest.approx(1.0 - sdp.PSD_TOL, abs=1e-5)

    def test_rank_deficient_margin(self):
        # unique solution diag(1, 0): margin sits at about -PSD_TOL
        builder = SdpProblemBuilder([2])
        builder.add_constraint(1.0, {0: [(0, 0, 1.0)]})
        builder.add_constraint(0.0, {0: [(1, 1, 1.0)]})
        builder.add_constraint(0.0, {0: [(0, 1, 0.5)]})
        solution = solve(builder.build())
        margin = min(solution.min_eigenvalues) - sdp.PSD_TOL
        assert margin == pytest.approx(-sdp.PSD_TOL, abs=1e-6)

    def test_margin_requires_feasible(self):
        builder = SdpProblemBuilder([2])
        builder.add_constraint(-1.0, {0: [(0, 0, 1.0), (1, 1, 1.0)]})
        solution = solve(builder.build())
        assert solution.status == "infeasible"
        assert solution.min_eigenvalues is None


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

    @pytest.mark.parametrize("entry", [
        "1 0 1 1 1.0", "1 3 1 1 1.0", "2 1 1 1 1.0", "-1 1 1 1 1.0",
        "1 1 0 1 1.0", "1 1 1 3 1.0", "1 2 2 2 1.0"])
    def test_index_out_of_range_rejected(self, tmp_path, entry):
        # one constraint over a 2x2 block and a 1-entry diagonal block;
        # read as Python indices, block 0 would land in the last block
        path = tmp_path / "bad.dat-s"
        path.write_text(f"1\n2\n2 -1\n1.0\n1 1 1 1 1.0\n{entry}\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"out of range in line {entry!r}")):
            read_sdpa(str(path))

    @pytest.mark.parametrize("text, message", [
        ("", "SDPA file ends before its constraint count line"),
        ("1\n2\n", "SDPA file ends before its block size line"),
        ("1\n1\n2\n", "SDPA file ends before its right-hand side line"),
        ("1\n2\n2\n1.0\n",
         "SDPA block size line '2' holds fewer than 2 values"),
        ("2\n1\n2\n1.0\n1 1 1 1 1.0\n",
         "SDPA right-hand side line '1.0' holds fewer than 2 values"),
        ("1\n1\n2\n1.0\n1 1 1 1\n",
         "SDPA entry line '1 1 1 1' holds fewer than 5 fields")])
    def test_truncated_file_names_the_line(self, tmp_path, text, message):
        path = tmp_path / "short.dat-s"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            read_sdpa(str(path))

    # one 2x2 block and a 1-entry diagonal block under X11 + X22 + d = 1;
    # the objective minimises X11 + X22 + 2 d
    ENTRIES = ("0 1 1 1 -1.0\n0 1 2 2 -1.0\n0 2 1 1 -2.0\n1 1 1 1 1.0\n"
               "ENTRY\n1 2 1 1 1.0\n")

    @staticmethod
    def contents(problem):
        return (problem.block_sizes, problem.rhs.tolist(),
                [[(e.block, e.rows.tolist(), e.cols.tolist(), e.vals.tolist())
                  for e in row] for row in problem.entries])

    @pytest.mark.parametrize("header, entry", [
        ("1\n2\n{2, -1}\n{1.0}", "1 1 2 2 1.0"),
        ("1\n2\n{2 -1}\n{1.0}", "{1, 1, 2, 2, 1.0}"),
        ("1\n2\n(2, -1)\n(1.0)", "1 1 2 2 1.0"),
        ("1\n2\n(2,-1)\n(1.0)", "(1 1 2 2 1.0)"),
        ("1\n2\n2 -1\n1.0", "1, 1, 2, 2, 1.0"),
        ('"an SDPLIB file\n1 =mdim\n2 =nblocks\n{2, -1}\n{1.0}',
         "1 1 2 2 1.0")],
        ids=["braces", "brace-entry", "parentheses", "parenthesis-entry",
             "commas", "sdplib"])
    def test_bracketed_vectors_read_as_bare(self, tmp_path, header, entry):
        # SDPLIB writes its block sizes and right-hand side in braces
        bare = tmp_path / "bare.dat-s"
        bare.write_text("1\n2\n2 -1\n1.0\n"
                        + self.ENTRIES.replace("ENTRY", "1 1 2 2 1.0"))
        bracketed = tmp_path / "bracketed.dat-s"
        bracketed.write_text(f"{header}\n"
                             + self.ENTRIES.replace("ENTRY", entry))
        loaded = read_sdpa(str(bracketed))
        assert self.contents(loaded) == self.contents(read_sdpa(str(bare)))
        solution = solve(loaded)
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("second", ["1 2", "2 1"])
    def test_repeated_objective_entries_are_summed(self, tmp_path, second):
        # the objective gets the pair twice, as constraint 1 does, and both
        # are summed: the objective's row is <C, X> - t = 0 with C = -M
        path = tmp_path / "repeat.dat-s"
        path.write_text(f"1\n1\n2\n1.0\n0 1 1 2 1.0\n0 1 {second} 1.0\n"
                        f"1 1 1 2 1.0\n1 1 {second} 1.0\n")
        loaded = read_sdpa(str(path))
        (constraint,), (objective,) = loaded.entries
        assert (constraint.rows.tolist(), constraint.cols.tolist(),
                constraint.vals.tolist()) == ([0], [1], [2.0])
        assert (objective.rows.tolist(), objective.cols.tolist(),
                objective.vals.tolist()) == ([0], [1], [-2.0])
