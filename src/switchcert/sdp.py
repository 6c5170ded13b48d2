"""Block-diagonal semidefinite programming at desk scale.

Standard form:

    minimise    sum_b <C_b, X_b> + g . u
    subject to  sum_b <A_jb, X_b> + d_j . u = b_j      j = 1..m
                X_b >= 0 (PSD),   u free

The solver embeds the problem in a homogeneous self-dual model and runs a
Mehrotra-style predictor-corrector interior-point iteration with dense block
linear algebra.  Free scalars are kept natively in the KKT system.  Proven
primal infeasibility is reported through a Farkas ray extracted from the
embedding; an ambiguous tau/kappa limit is reported as numerical failure,
never silently misclassified.  Runs are deterministic for a fixed config.

Constraints are normalised to unit Frobenius norm internally; reported
residuals refer to the original data, scaled by 1/(1 + max |rhs|).

``solve`` is the only place that retries.  It walks one attempt list, the
tolerance levels times the KKT regularisations ``(0, 1e-10, 1e-8)``, and
returns the first result that is not numerical failure.  The levels are the
config's tolerances, then the relaxed floor max(tol, 1e-6) when the config
is tighter than that floor.  Ill-conditioned SOS programs (large
certificate scales at feasibility edges) can sit below the double-precision
residual floor of the default tolerances.  Relaxing is safe because the
Farkas-ray bar does not loosen with feas_tol, so a relaxed attempt cannot
misclassify a feasible problem as infeasible, and every certificate is
re-verified independently of the search.  An attempt that exhausts
complementarity ("tolerances unreachable") skips the remaining
regularisations, which do not lower that floor.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE = "feasible"
STATUS_INFEASIBLE = "infeasible"
STATUS_FAILURE = "numerical-failure"

MAX_ITERATIONS = 20000
STEP_SCALE = 0.98                     # fraction of the step to the cone edge
REGULARIZATIONS = (0.0, 1e-10, 1e-8)  # KKT diagonal shifts, tried in order
TOLERANCE_FLOOR = 1e-6                # feas_tol, gap_tol of the relaxed level
_MU_FLOOR = "tolerances unreachable in double precision"


@dataclass(frozen=True)
class SolverConfig:
    feas_tol: float = 1e-7
    psd_tol: float = 1e-8
    gap_tol: float = 1e-7
    audit: bool = False    # verify Newton equations each iteration (tests)

    def __post_init__(self):
        if min(self.feas_tol, self.psd_tol, self.gap_tol) <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class _ConstraintEntries:
    """Sparse symmetric entries of one constraint in one block (i <= j)."""

    block: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


@dataclass(frozen=True)
class SdpProblem:
    block_sizes: tuple
    n_free: int
    rhs: np.ndarray                      # (m,)
    entries: tuple                       # tuple over constraints of tuples of _ConstraintEntries
    free_rows: tuple                     # per constraint: (idx array, val array)
    obj_blocks: tuple                    # dense symmetric matrix or None per block
    obj_free: np.ndarray                 # (n_free,)

    @property
    def m(self) -> int:
        return len(self.rhs)

    def constraint_value(self, j: int, blocks, free) -> float:
        """<A_j, X> + d_j . u for given primal values."""
        total = 0.0
        for ent in self.entries[j]:
            X = blocks[ent.block]
            off = ent.rows != ent.cols
            contrib = ent.vals * X[ent.rows, ent.cols]
            total += float(np.sum(contrib * np.where(off, 2.0, 1.0)))
        idx, vals = self.free_rows[j]
        if len(idx) and free is not None:
            total += float(vals @ np.asarray(free)[idx])
        return total

    def constraint_norm(self, j: int) -> float:
        """Frobenius norm of (A_j, d_j)."""
        fro2 = 0.0
        for ent in self.entries[j]:
            off = ent.rows != ent.cols
            fro2 += float(np.sum(ent.vals ** 2 * np.where(off, 2.0, 1.0)))
        idx, vals = self.free_rows[j]
        fro2 += float(np.sum(vals ** 2))
        return float(np.sqrt(fro2))

    def primal_residual(self, blocks, free) -> float:
        """max_j |<A_j,X> + d_j.u - b_j| / (1 + max(|b_j|, ||A_j||_F)).

        Row-normalised so the value is meaningful for badly scaled rows."""
        worst = 0.0
        for j in range(self.m):
            violation = abs(self.constraint_value(j, blocks, free) - self.rhs[j])
            scale = 1.0 + max(abs(self.rhs[j]), self.constraint_norm(j))
            worst = max(worst, violation / scale)
        return worst

    def objective_value(self, blocks, free) -> float:
        total = 0.0
        for b, C in enumerate(self.obj_blocks):
            if C is not None:
                total += float(np.sum(C * blocks[b]))
        if self.n_free:
            total += float(self.obj_free @ free)
        return total


class SdpProblemBuilder:
    """Incremental assembly of an SdpProblem with sparse symmetric entries."""

    def __init__(self, block_sizes: Sequence[int], n_free: int = 0):
        if not block_sizes:
            raise ValueError("need at least one PSD block")
        self.block_sizes = tuple(int(s) for s in block_sizes)
        if any(s < 1 for s in self.block_sizes):
            raise ValueError("block sizes must be positive")
        self.n_free = int(n_free)
        self._rhs = []
        self._entries = []
        self._free_rows = []
        self._obj_blocks = [None] * len(self.block_sizes)
        self._obj_free = np.zeros(self.n_free)

    def set_objective_block(self, block: int, M: np.ndarray):
        M = np.asarray(M, dtype=float)
        s = self.block_sizes[block]
        if M.shape != (s, s) or not np.allclose(M, M.T, atol=1e-12):
            raise ValueError("objective block must be symmetric of block size")
        self._obj_blocks[block] = 0.5 * (M + M.T)

    def set_objective_free(self, vec: Sequence[float]):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.n_free,):
            raise ValueError("objective length must match free variable count")
        self._obj_free = vec.copy()

    def add_constraint(self, rhs: float, block_entries=None, free_entries=None):
        """block_entries: {block: [(i, j, value), ...]}, value is the full
        symmetric entry A[i,j] = A[j,i]; free_entries: {index: value}."""
        ents = []
        for block, triplets in sorted((block_entries or {}).items()):
            s = self.block_sizes[block]
            rows, cols, vals = [], [], []
            agg: dict = {}
            for i, j, v in triplets:
                if not (0 <= i < s and 0 <= j < s):
                    raise ValueError("entry index out of range")
                key = (min(i, j), max(i, j))
                agg[key] = agg.get(key, 0.0) + float(v)
            for (i, j), v in sorted(agg.items()):
                if v != 0.0:
                    rows.append(i)
                    cols.append(j)
                    vals.append(v)
            if rows:
                ents.append(_ConstraintEntries(
                    block,
                    np.array(rows, dtype=np.intp),
                    np.array(cols, dtype=np.intp),
                    np.array(vals, dtype=float)))
        fidx, fval = [], []
        for idx, v in sorted((free_entries or {}).items()):
            if not 0 <= idx < self.n_free:
                raise ValueError("free variable index out of range")
            if v != 0.0:
                fidx.append(idx)
                fval.append(float(v))
        self._rhs.append(float(rhs))
        self._entries.append(tuple(ents))
        self._free_rows.append(
            (np.array(fidx, dtype=np.intp), np.array(fval, dtype=float)))

    def build(self) -> SdpProblem:
        return SdpProblem(
            block_sizes=self.block_sizes,
            n_free=self.n_free,
            rhs=np.array(self._rhs, dtype=float),
            entries=tuple(self._entries),
            free_rows=tuple(self._free_rows),
            obj_blocks=tuple(self._obj_blocks),
            obj_free=self._obj_free.copy(),
        )


@dataclass
class SdpSolution:
    status: str
    blocks: list | None
    free: np.ndarray | None
    y: np.ndarray | None
    objective: float | None
    dual_objective: float | None
    primal_residual: float
    min_eigenvalues: list | None
    gap: float | None
    iterations: int
    message: str = ""
    certificate: dict | None = None

    @property
    def feasible(self) -> bool:
        return self.status in (STATUS_OPTIMAL, STATUS_FEASIBLE)


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M - M.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def strict_feasibility_margin(problem: SdpProblem, solution: SdpSolution,
                              config: SolverConfig | None = None) -> float:
    """min over blocks of (smallest eigenvalue) minus psd_tol."""
    config = config or SolverConfig()
    if not solution.feasible or solution.blocks is None:
        raise ValueError("margin is defined for feasible/optimal solutions only")
    return min(min_eigenvalue(X) for X in solution.blocks) - config.psd_tol


# -- interior-point core -------------------------------------------------------


def _sym(M):
    return 0.5 * (M + M.T)


class _Embedding:
    """Homogeneous self-dual iteration state on the scaled problem data."""

    def __init__(self, problem: SdpProblem, config: SolverConfig):
        self.cfg = config
        self.sizes = problem.block_sizes
        self.nblocks = len(self.sizes)
        self.m = problem.m
        self.f = problem.n_free
        self.nu = sum(self.sizes)

        # constraint scaling to unit Frobenius norm
        self.A = []  # per block: (m, s, s) dense tensors, scaled
        scale = np.zeros(problem.m)
        for j in range(problem.m):
            fro2 = 0.0
            for ent in problem.entries[j]:
                off = ent.rows != ent.cols
                fro2 += float(np.sum(ent.vals ** 2 * np.where(off, 2.0, 1.0)))
            idx, vals = problem.free_rows[j]
            fro2 += float(np.sum(vals ** 2))
            scale[j] = 1.0 / max(np.sqrt(fro2), 1e-12)
        self.con_scale = scale

        for b, s in enumerate(self.sizes):
            tens = np.zeros((problem.m, s, s))
            for j in range(problem.m):
                for ent in problem.entries[j]:
                    if ent.block == b:
                        tens[j][ent.rows, ent.cols] = ent.vals
                        tens[j][ent.cols, ent.rows] = ent.vals
                tens[j] *= scale[j]
            self.A.append(tens)

        self.D = np.zeros((problem.m, self.f))
        for j in range(problem.m):
            idx, vals = problem.free_rows[j]
            if len(idx):
                self.D[j, idx] = vals * scale[j]

        self.b = problem.rhs * scale

        obj_fro2 = float(np.sum(problem.obj_free ** 2))
        for C in problem.obj_blocks:
            if C is not None:
                obj_fro2 += float(np.sum(C ** 2))
        self.obj_scale = 1.0 / max(1.0, np.sqrt(obj_fro2))
        self.C = []
        for b, s in enumerate(self.sizes):
            C = problem.obj_blocks[b]
            self.C.append(
                np.zeros((s, s)) if C is None else C * self.obj_scale)
        self.g = problem.obj_free * self.obj_scale

        # start at the identity point
        self.X = [np.eye(s) for s in self.sizes]
        self.S = [np.eye(s) for s in self.sizes]
        self.y = np.zeros(problem.m)
        self.u = np.zeros(self.f)
        self.tau = 1.0
        self.kappa = 1.0

    # -- linear operators --

    def opA(self, Xs) -> np.ndarray:
        out = np.zeros(self.m)
        for b in range(self.nblocks):
            out += np.einsum("kij,ij->k", self.A[b], Xs[b])
        return out

    def opAt(self, y) -> list:
        return [np.einsum("k,kij->ij", y, self.A[b]) for b in range(self.nblocks)]

    def inner_C(self, Xs) -> float:
        return sum(float(np.sum(self.C[b] * Xs[b])) for b in range(self.nblocks))

    # -- residuals of the embedding equations (all should go to zero) --

    def residuals(self):
        E1 = self.opA(self.X) + (self.D @ self.u if self.f else 0.0) \
            - self.b * self.tau
        E2 = [self.opAt(self.y)[b] + self.S[b] - self.C[b] * self.tau
              for b in range(self.nblocks)]
        E3 = (self.D.T @ self.y - self.g * self.tau) if self.f else np.zeros(0)
        E4 = self.inner_C(self.X) + float(self.g @ self.u) \
            - float(self.b @ self.y) + self.kappa
        return E1, E2, E3, E4

    def mu(self) -> float:
        dots = sum(float(np.sum(self.X[b] * self.S[b]))
                   for b in range(self.nblocks))
        return (dots + self.tau * self.kappa) / (self.nu + 1)


def _max_step_psd(M, L, dM) -> float:
    """Largest alpha with M + alpha*dM PSD, via L^-1 dM L^-T eigenvalues."""
    W = sla.solve_triangular(L, dM, lower=True)
    W = sla.solve_triangular(L, W.T, lower=True).T
    lam = float(np.linalg.eigvalsh(_sym(W))[0])
    if lam >= -1e-16:
        return np.inf
    return -1.0 / lam


def _solve(problem: SdpProblem, config: SolverConfig, regularization: float):
    emb = _Embedding(problem, config)
    m, f = emb.m, emb.f
    max_abs_b = float(np.max(np.abs(emb.b))) if m else 0.0
    max_abs_C = max(
        (float(np.max(np.abs(C))) if C.size else 0.0 for C in emb.C),
        default=0.0)
    max_abs_g = float(np.max(np.abs(emb.g))) if f else 0.0

    mu0 = emb.mu()
    stall = 0
    last_mu = mu0
    status = None
    message = ""
    certificate = None
    iterations = 0

    feasibility_only = max_abs_C == 0.0 and max_abs_g == 0.0

    for it in range(1, MAX_ITERATIONS + 1):
        iterations = it
        # factor the cone variables; retreat to failure on breakdown
        try:
            Lx = [np.linalg.cholesky(emb.X[b]) for b in range(emb.nblocks)]
            Ls = [np.linalg.cholesky(emb.S[b]) for b in range(emb.nblocks)]
        except np.linalg.LinAlgError:
            status, message = STATUS_FAILURE, "cone factorisation failed"
            break
        Sinv = [sla.cho_solve((Ls[b], True), np.eye(emb.sizes[b]))
                for b in range(emb.nblocks)]

        E1, E2, E3, E4 = emb.residuals()
        mu_hat = emb.mu()

        # Schur complement B[j,k] = tr(A_j X A_k S^-1) via B = U U^T with
        # U_j = Ls^-1 A_j Lx, plus objective borders v, w.
        B = np.zeros((m, m))
        v = np.zeros(m)
        w = 0.0
        Uflat = []
        for b in range(emb.nblocks):
            s = emb.sizes[b]
            T = np.einsum("kij,jl->kil", emb.A[b], Lx[b])
            U = sla.solve_triangular(
                Ls[b], T.transpose(1, 0, 2).reshape(s, m * s), lower=True)
            U = U.reshape(s, m, s).transpose(1, 0, 2).reshape(m, s * s)
            Uflat.append(U)
            UC = sla.solve_triangular(Ls[b], emb.C[b] @ Lx[b], lower=True).ravel()
            B += U @ U.T
            v += U @ UC
            w += float(UC @ UC)
        B = _sym(B)

        nk = m + f
        K = np.zeros((nk, nk))
        K[:m, :m] = B
        if f:
            K[:m, m:] = emb.D
            K[m:, :m] = emb.D.T
        if regularization > 0.0:
            K[:m, :m] += regularization * np.eye(m)
            if f:
                K[m:, m:] -= regularization * np.eye(f)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                lu = sla.lu_factor(K)
        except (np.linalg.LinAlgError, ValueError):
            status, message = STATUS_FAILURE, "KKT factorisation failed"
            break

        def kkt_solve(rhs):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sol = sla.lu_solve(lu, rhs)
                # one iterative refinement pass
                sol += sla.lu_solve(lu, rhs - K @ sol)
            if not np.all(np.isfinite(sol)):
                raise FloatingPointError("singular KKT system")
            return sol

        def direction(eta, tc, corrM, corr_tk):
            G = []
            for b in range(emb.nblocks):
                Gb = tc * Sinv[b] - emb.X[b] \
                    + eta * _sym(emb.X[b] @ E2[b] @ Sinv[b])
                if corrM is not None:
                    Gb = Gb - corrM[b]
                G.append(Gb)
            AG = np.zeros(m)
            for b in range(emb.nblocks):
                AG += np.einsum("kij,ij->k", emb.A[b], G[b])
            e0 = (tc - emb.tau * emb.kappa - corr_tk) / emb.tau
            h1 = -eta * E1 - AG
            h2 = -eta * E3 if f else np.zeros(0)
            h3 = -eta * E4 - emb.inner_C(G) - e0

            rhs_p = np.concatenate([h1, h2])
            rhs_q = np.concatenate([emb.b + v, emb.g])
            p = kkt_solve(rhs_p)
            q = kkt_solve(rhs_q)
            vb = v - emb.b
            den = float(vb @ q[:m]) + (float(emb.g @ q[m:]) if f else 0.0) \
                - w - emb.kappa / emb.tau
            num = h3 - float(vb @ p[:m]) - (float(emb.g @ p[m:]) if f else 0.0)
            if abs(den) < 1e-300:
                raise FloatingPointError("singular tau pivot")
            dtau = num / den
            dy = p[:m] + dtau * q[:m]
            du = p[m:] + dtau * q[m:] if f else np.zeros(0)
            At_dy = emb.opAt(dy)
            dS = [-eta * E2[b] + emb.C[b] * dtau - At_dy[b]
                  for b in range(emb.nblocks)]
            dX = []
            for b in range(emb.nblocks):
                M = tc * Sinv[b] - emb.X[b] - _sym(emb.X[b] @ dS[b] @ Sinv[b])
                if corrM is not None:
                    M = M - corrM[b]
                dX.append(_sym(M))
            dkappa = e0 - (emb.kappa / emb.tau) * dtau
            return dX, du, dy, dS, dtau, dkappa

        def max_step(dX, dS, dtau, dkappa):
            alpha = np.inf
            for b in range(emb.nblocks):
                alpha = min(alpha, _max_step_psd(emb.X[b], Lx[b], dX[b]))
                alpha = min(alpha, _max_step_psd(emb.S[b], Ls[b], dS[b]))
            if dtau < 0:
                alpha = min(alpha, -emb.tau / dtau)
            if dkappa < 0:
                alpha = min(alpha, -emb.kappa / dkappa)
            return alpha

        try:
            # predictor
            dXa, dua, dya, dSa, dta, dka = direction(1.0, 0.0, None, 0.0)
            alpha_a = min(1.0, max_step(dXa, dSa, dta, dka))
            dot = sum(
                float(np.sum((emb.X[b] + alpha_a * dXa[b])
                             * (emb.S[b] + alpha_a * dSa[b])))
                for b in range(emb.nblocks))
            mu_aff = (dot + (emb.tau + alpha_a * dta)
                      * (emb.kappa + alpha_a * dka)) / (emb.nu + 1)
            sigma = min(max((mu_aff / mu_hat) ** 3, 1e-10), 0.99999)

            # corrector
            corrM = [_sym(dXa[b] @ dSa[b] @ Sinv[b]) for b in range(emb.nblocks)]
            corr_tk = dta * dka
            dX, du, dy, dS, dtau, dkappa = direction(
                1.0 - sigma, sigma * mu_hat, corrM, corr_tk)
        except FloatingPointError:
            status, message = STATUS_FAILURE, "singular Newton system"
            break

        if config.audit:
            _audit_direction(emb, E1, E2, E3, E4, Sinv,
                             1.0 - sigma, sigma * mu_hat, corrM, corr_tk,
                             dX, du, dy, dS, dtau, dkappa)

        alpha = min(1.0, STEP_SCALE * max_step(dX, dS, dtau, dkappa))
        if not np.isfinite(alpha) or alpha <= 1e-10:
            status, message = STATUS_FAILURE, "step size collapsed"
            break

        for b in range(emb.nblocks):
            emb.X[b] = _sym(emb.X[b] + alpha * dX[b])
            emb.S[b] = _sym(emb.S[b] + alpha * dS[b])
        emb.y += alpha * dy
        if f:
            emb.u += alpha * du
        emb.tau += alpha * dtau
        emb.kappa += alpha * dkappa

        # the embedding is positively homogeneous: renormalise the iterate
        # when magnitudes threaten double-precision range
        peak = max(emb.tau, emb.kappa,
                   max(float(np.max(np.abs(emb.X[b]))) for b in range(emb.nblocks)),
                   max(float(np.max(np.abs(emb.S[b]))) for b in range(emb.nblocks)),
                   float(np.max(np.abs(emb.y))) if m else 0.0,
                   float(np.max(np.abs(emb.u))) if f else 0.0)
        if peak > 1e8:
            inv = 1.0 / peak
            for b in range(emb.nblocks):
                emb.X[b] *= inv
                emb.S[b] *= inv
            emb.y *= inv
            if f:
                emb.u *= inv
            emb.tau *= inv
            emb.kappa *= inv
            last_mu *= inv * inv  # mu is degree-2 homogeneous in the iterate

        # convergence checks on the scaled data
        E1, E2, E3, E4 = emb.residuals()
        tau = emb.tau
        pres = float(np.max(np.abs(E1))) / tau / (1.0 + max_abs_b)
        dres = max(float(np.max(np.abs(E2[b]))) for b in range(emb.nblocks)) \
            / tau / (1.0 + max_abs_C)
        gres = (float(np.max(np.abs(E3))) / tau / (1.0 + max_abs_g)) if f else 0.0
        pobj = (emb.inner_C(emb.X) + float(emb.g @ emb.u)) / tau
        dobj = float(emb.b @ emb.y) / tau
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

        if pres <= config.feas_tol and dres <= config.feas_tol \
                and gres <= config.feas_tol and gap <= config.gap_tol:
            # also require the original-scale residual before declaring victory
            cand_blocks = [X / tau for X in emb.X]
            cand_free = emb.u / tau if f else np.zeros(0)
            if problem.primal_residual(cand_blocks, cand_free) <= config.feas_tol:
                status = STATUS_OPTIMAL
                break

        # infeasibility rays become visible as tau collapses against kappa.
        # The ray quality bar is fixed rather than tied to feas_tol so that a
        # loosened solve cannot misclassify a feasible problem; a marginal
        # instance degrades to numerical-failure instead.
        ray_tol = min(config.feas_tol, 1e-8)
        if tau < 1e-3 * emb.kappa:
            by = float(emb.b @ emb.y)
            if by > 0:
                ray_res = max(
                    float(np.max(np.abs(emb.opAt(emb.y)[b] + emb.S[b])))
                    for b in range(emb.nblocks))
                ray_res = max(ray_res,
                              float(np.max(np.abs(emb.D.T @ emb.y))) if f else 0.0)
                if ray_res <= ray_tol * by:
                    status = STATUS_INFEASIBLE
                    certificate = {
                        "ray_y": emb.y / by * emb.con_scale,
                        "ray_objective": 1.0,
                        "ray_residual": ray_res / by,
                    }
                    message = "Farkas ray found (dual improving direction)"
                    break
            neg_obj = -(emb.inner_C(emb.X) + float(emb.g @ emb.u))
            if neg_obj > 0:
                ray_res = float(np.max(np.abs(
                    emb.opA(emb.X) + (emb.D @ emb.u if f else 0.0))))
                if ray_res <= ray_tol * neg_obj:
                    status = STATUS_FAILURE
                    message = ("primal appears unbounded "
                               "(dual infeasibility ray detected)")
                    break
            if tau < 1e-12 * emb.kappa:
                status = STATUS_FAILURE
                message = "tau/kappa limit ambiguous"
                break

        mu_hat = emb.mu()
        if mu_hat > 0.9999 * last_mu:
            stall += 1
        else:
            stall = 0
        last_mu = mu_hat
        if stall >= 30:
            status, message = STATUS_FAILURE, "iteration stalled"
            break
        if mu_hat < 1e-6 * min(config.feas_tol, config.gap_tol) ** 2:
            # complementarity is exhausted; nothing further can improve
            status, message = STATUS_FAILURE, _MU_FLOOR
            break
    else:
        status, message = STATUS_FAILURE, "iteration limit reached"

    if status is None:
        status = STATUS_FAILURE
        message = message or "iteration ended unexpectedly"

    # assemble the reported solution in original scale
    blocks = free = y_out = None
    objective = dual_objective = gap_out = None
    min_eigs = None
    primal_res = np.inf
    if status != STATUS_INFEASIBLE and emb.tau > 0:
        blocks = [X / emb.tau for X in emb.X]
        free = emb.u / emb.tau if f else np.zeros(0)
        y_out = emb.y / emb.tau * emb.con_scale / emb.obj_scale
        objective = problem.objective_value(blocks, free)
        dual_objective = float(problem.rhs @ y_out)
        denom = 1.0 + abs(objective) + abs(dual_objective)
        gap_out = abs(objective - dual_objective) / denom
        min_eigs = [min_eigenvalue(X) for X in blocks]
        primal_res = problem.primal_residual(blocks, free)

        if status == STATUS_FAILURE:
            # salvage: the point may still certify plain feasibility
            if primal_res <= config.feas_tol \
                    and min(min_eigs) >= -config.psd_tol \
                    and (feasibility_only or
                         (gap_out is not None and gap_out <= 1e-4)):
                status = STATUS_FEASIBLE
                message = f"feasible point accepted ({message})"
        elif status == STATUS_OPTIMAL and primal_res > config.feas_tol:
            status = STATUS_FEASIBLE
            message = "objective converged but original-scale residual is loose"

    return SdpSolution(
        status=status,
        blocks=blocks,
        free=free,
        y=y_out,
        objective=objective,
        dual_objective=dual_objective,
        primal_residual=primal_res,
        min_eigenvalues=min_eigs,
        gap=gap_out,
        iterations=iterations,
        message=message,
        certificate=certificate,
    )


def _audit_direction(emb, E1, E2, E3, E4, Sinv, eta, tc, corrM, corr_tk,
                     dX, du, dy, dS, dtau, dkappa):
    """Assert the Newton equations hold; used by tests via config.audit."""
    tol = 1e-6 * (1 + emb.m)
    AdX = np.zeros(emb.m)
    for b in range(emb.nblocks):
        AdX += np.einsum("kij,ij->k", emb.A[b], dX[b])
    lhs1 = AdX + (emb.D @ du if emb.f else 0.0) - emb.b * dtau
    assert np.max(np.abs(lhs1 + eta * E1)) < tol, "primal Newton row failed"
    At_dy = emb.opAt(dy)
    for b in range(emb.nblocks):
        lhs2 = At_dy[b] + dS[b] - emb.C[b] * dtau
        assert np.max(np.abs(lhs2 + eta * E2[b])) < tol, "dual Newton row failed"
    if emb.f:
        lhs3 = emb.D.T @ dy - emb.g * dtau
        assert np.max(np.abs(lhs3 + eta * E3)) < tol, "free Newton row failed"
    lhs4 = emb.inner_C(dX) + float(emb.g @ du) - float(emb.b @ dy) + dkappa
    assert abs(lhs4 + eta * E4) < tol, "gap Newton row failed"
    for b in range(emb.nblocks):
        lhs5 = dX[b] + _sym(emb.X[b] @ dS[b] @ Sinv[b]) \
            - (tc * Sinv[b] - emb.X[b] - (corrM[b] if corrM else 0.0))
        assert np.max(np.abs(lhs5)) < tol, "complementarity Newton row failed"
    lhs6 = emb.tau * dkappa + emb.kappa * dtau \
        - (tc - emb.tau * emb.kappa - corr_tk)
    assert abs(lhs6) < tol, "tau-kappa Newton row failed"


def _tolerance_levels(config: SolverConfig) -> list:
    """The config, then the relaxed floor when the config is tighter."""
    if min(config.feas_tol, config.gap_tol) >= TOLERANCE_FLOOR:
        return [config]
    return [config, dataclasses.replace(
        config, feas_tol=max(config.feas_tol, TOLERANCE_FLOOR),
        gap_tol=max(config.gap_tol, TOLERANCE_FLOOR))]


def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Solve the SDP, walking the attempt list of the module docstring.

    For each tolerance level (the config's, then max(tol, 1e-6) when the
    config is tighter) try the regularisations 0, 1e-10 and 1e-8, and
    return the first result that is not numerical failure, or the last
    failure.  An attempt stopped by the double-precision floor of mu goes
    straight to the next level.  The relaxed level is safe: the Farkas-ray
    bar stays fixed, and certify.verify_certificate re-checks every
    certificate independently.
    """
    config = config or SolverConfig()
    if problem.m == 0:
        raise ValueError("problem has no constraints")
    for level in _tolerance_levels(config):
        for reg in REGULARIZATIONS:
            try:
                solution = _solve(problem, level, reg)
            except (np.linalg.LinAlgError, ValueError,
                    FloatingPointError) as exc:
                solution = SdpSolution(
                    status=STATUS_FAILURE, blocks=None, free=None, y=None,
                    objective=None, dual_objective=None,
                    primal_residual=np.inf, min_eigenvalues=None, gap=None,
                    iterations=0, message=f"linear algebra failure: {exc}")
            if solution.status != STATUS_FAILURE:
                return solution
            if solution.message == _MU_FLOOR:
                break
    return solution


# -- SDPA sparse format --------------------------------------------------------


def write_sdpa(problem: SdpProblem, path: str):
    """Dump in SDPA sparse format (.dat-s) for external cross-checks.

    Free scalars are encoded as differences of paired non-negative diagonal
    entries in one extra diagonal block, so the file is solution-equivalent
    rather than structurally identical.
    """
    lines = ['"switchcert SDPA sparse dump"']
    nblocks = len(problem.block_sizes) + (1 if problem.n_free else 0)
    lines.append(str(problem.m))
    lines.append(str(nblocks))
    sizes = [str(s) for s in problem.block_sizes]
    if problem.n_free:
        sizes.append(str(-2 * problem.n_free))
    lines.append(" ".join(sizes))
    lines.append(" ".join(format(v, ".17g") for v in problem.rhs))

    def emit(matno, block, i, j, v):
        lines.append(f"{matno} {block + 1} {i + 1} {j + 1} {format(v, '.17g')}")

    # objective: SDPA maximises tr(F0 Y); our problem minimises, so F0 = -C
    for b, C in enumerate(problem.obj_blocks):
        if C is None:
            continue
        s = problem.block_sizes[b]
        for i in range(s):
            for j in range(i, s):
                if C[i, j] != 0.0:
                    emit(0, b, i, j, -C[i, j])
    if problem.n_free:
        fb = len(problem.block_sizes)
        for k, gk in enumerate(problem.obj_free):
            if gk != 0.0:
                emit(0, fb, 2 * k, 2 * k, -gk)
                emit(0, fb, 2 * k + 1, 2 * k + 1, gk)

    for j in range(problem.m):
        for ent in problem.entries[j]:
            for i, jj, v in zip(ent.rows, ent.cols, ent.vals):
                emit(j + 1, ent.block, int(i), int(jj), float(v))
        idx, vals = problem.free_rows[j]
        if problem.n_free and len(idx):
            fb = len(problem.block_sizes)
            for k, v in zip(idx, vals):
                emit(j + 1, fb, 2 * int(k), 2 * int(k), float(v))
                emit(j + 1, fb, 2 * int(k) + 1, 2 * int(k) + 1, -float(v))

    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sdpa(path: str) -> SdpProblem:
    """Read an SDPA sparse file as a pure PSD problem.

    Diagonal blocks (negative sizes) are expanded to 1x1 PSD blocks; the
    objective is negated back into minimisation form.
    """
    raw = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line[0] in '"*':
                continue
            raw.append(line)
    m = int(raw[0].split()[0])
    nblocks = int(raw[1].split()[0])
    declared = [int(tok) for tok in raw[2].replace(",", " ").split()[:nblocks]]
    rhs = [float(tok) for tok in raw[3].replace(",", " ").split()[:m]]

    # expand diagonal blocks into singleton PSD blocks
    block_map = []  # per declared block: (offset into expanded list, diag?)
    sizes = []
    for size in declared:
        if size < 0:
            block_map.append((len(sizes), True))
            sizes.extend([1] * (-size))
        else:
            block_map.append((len(sizes), False))
            sizes.append(size)

    obj = {}
    cons: list = [dict() for _ in range(m)]
    for line in raw[4:]:
        toks = line.replace(",", " ").split()
        matno, blk, i, j, v = (int(toks[0]), int(toks[1]) - 1,
                               int(toks[2]) - 1, int(toks[3]) - 1, float(toks[4]))
        offset, diag = block_map[blk]
        if diag:
            if i != j:
                raise ValueError("off-diagonal entry in diagonal block")
            target, ii, jj = offset + i, 0, 0
        else:
            target, ii, jj = offset, i, j
        store = obj if matno == 0 else cons[matno - 1]
        store.setdefault(target, []).append((ii, jj, v))

    builder = SdpProblemBuilder(sizes, n_free=0)
    for b, triplets in obj.items():
        s = sizes[b]
        M = np.zeros((s, s))
        for i, j, v in triplets:
            M[i, j] = v
            M[j, i] = v
        builder.set_objective_block(b, -M)
    for j in range(m):
        builder.add_constraint(rhs[j], cons[j])
    return builder.build()
