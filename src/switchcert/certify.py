"""Absorbing-set certification for switched polynomial systems.

Workflow: search for a Lyapunov function V = S + delta*||x||_{2l}^{2l}
(S an unknown SOS polynomial) and SOS multipliers p_i such that

    -f_i . grad V - p_i * (||x||_2^2 - beta) - delta*||x||_{2l}^{2l}

is SOS for every subsystem i.  Success certifies that V decreases along
every subsystem flow outside the ball ||x||_2^2 <= beta.  A second program
minimises gamma subject to

    -(V - gamma) + q * (||x||_2^2 - beta)   is SOS,

which makes {V <= gamma} an absorbing set containing that ball.  beta is
lowered by bisection, the degree of V escalates until feasibility, and
every certificate is re-checked by independent Gram re-derivation plus
deterministic sampling before any verdict is issued.  For linear switched
systems with Hurwitz subsystem matrices an absorbing set implies global
asymptotic stability under arbitrary switching, and excludes periodic
switched solutions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .poly import (Polynomial, PolynomialVectorField, even_power_norm,
                   lie_derivative)
from . import sdp
from .sdp import SolverConfig, SdpSolution, solve, strict_feasibility_margin
from .sosprog import (DecodedSos, ScalarTerm, SdpEncoding, SosIdentity,
                      SosProgram, SosUnknown, UnknownLieTerm, UnknownTerm,
                      decode, encode, gram_expand, monomial_basis,
                      _identity_basis as _sos_identity_basis)

GAS = "GLOBALLY_ASYMPTOTICALLY_STABLE"
ULTIMATELY_BOUNDED = "ULTIMATELY_BOUNDED"


class NumericalFailureError(RuntimeError):
    """The SDP solver could not classify the instance reliably."""


class InfeasibleAtCapError(RuntimeError):
    """Degree escalation exhausted its cap without a feasible program."""


class EquilibriumError(ValueError):
    """A common-Lyapunov query on subsystems without a common origin."""


class GammaInfeasibleError(RuntimeError):
    """Sublevel program infeasible; retry with a larger multiplier degree."""


class CertificateRejectedError(RuntimeError):
    """Verification failed; carries the report naming the failing checks."""

    def __init__(self, report):
        names = ", ".join(report.failures)
        super().__init__(f"certificate rejected: {names}")
        self.report = report


@dataclass(frozen=True)
class SwitchedSystem:
    """x' = f_sigma(x) with sigma ranging over the given subsystems."""

    dimension: int
    fields: tuple

    def __post_init__(self):
        fields = tuple(self.fields)
        object.__setattr__(self, "fields", fields)
        if not fields:
            raise ValueError("need at least one subsystem")
        for f in fields:
            if f.dimension != self.dimension:
                raise ValueError("subsystem dimension mismatch")

    @property
    def n_subsystems(self) -> int:
        return len(self.fields)

    @property
    def linear_flags(self) -> tuple:
        return tuple(f.is_linear() for f in self.fields)

    def is_linear(self) -> bool:
        return all(self.linear_flags)

    def linear_matrices(self) -> list:
        return [f.linear_matrix() for f in self.fields]

    @classmethod
    def from_matrices(cls, matrices: Sequence[np.ndarray]) -> "SwitchedSystem":
        return cls.from_affine(matrices, [None] * len(matrices))

    @classmethod
    def from_affine(cls, matrices, offsets) -> "SwitchedSystem":
        mats = [np.asarray(A, dtype=float) for A in matrices]
        n = mats[0].shape[0]
        fields = []
        for A, d in zip(mats, offsets):
            comps = []
            for row in range(n):
                terms = {}
                for col in range(n):
                    if A[row, col] != 0.0:
                        exp = [0] * n
                        exp[col] = 1
                        terms[tuple(exp)] = A[row, col]
                if d is not None and d[row] != 0.0:
                    terms[(0,) * n] = float(d[row])
                comps.append(Polynomial(n, terms))
            fields.append(PolynomialVectorField(n, tuple(comps)))
        return cls(n, tuple(fields))


@dataclass
class CertificationQuery:
    """Parameters of one certification run; beta is a scalar or an interval
    [0, beta_max], and degree None escalates from 2*ell to degree_cap."""

    ell: int = 1
    delta: float = 1.0
    degree: int | None = None
    beta: float | None = None
    beta_max: float | None = None
    homogeneous: bool | None = None
    degree_cap: int = 12
    deg_q: int | None = None
    beta_tol: float = 0.05
    verify_samples: int = 2000
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be a positive integer")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.degree is not None:
            if self.degree % 2 or self.degree < 2 * self.ell:
                raise ValueError("degree must be even and at least 2*ell")
        if self.beta is not None and self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.beta_max is not None and self.beta_max < 0:
            raise ValueError("beta_max must be non-negative")


@dataclass
class VerificationReport:
    """Outcome of the independent certificate checks."""

    identity_residuals: dict
    gram_margins: dict
    negativity_margin: float | None
    containment_ok: bool | None
    containment_slack: float | None
    sample_count: int
    seed: int
    failures: tuple
    residual_tol: float
    eig_tol: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_lines(self) -> list:
        worst_res = max(self.identity_residuals.values(), default=0.0)
        worst_eig = min(
            (m for m, _ in self.gram_margins.values()), default=0.0)
        lines = [
            f"residual_max {worst_res:.3e} (tol {self.residual_tol:g})",
            f"gram_min_eig {worst_eig:.3e}",
        ]
        if self.negativity_margin is not None:
            lines.append(f"negativity_margin {self.negativity_margin:.6g}")
        if self.containment_slack is not None:
            lines.append(f"containment_slack {self.containment_slack:.6g}")
        lines.append(
            "checks passed" if self.passed
            else "checks FAILED: " + ", ".join(self.failures))
        return lines


@dataclass
class AbsorbingSetCertificate:
    """V, multipliers and constants certifying {V <= gamma} absorbing."""

    dimension: int
    n_subsystems: int
    lyapunov: Polynomial
    beta: float
    delta: float
    ell: int
    gamma: float | None = None
    multipliers: tuple | None = None
    radius_multiplier: Polynomial | None = None
    verdict: str | None = None
    report: VerificationReport | None = None


@dataclass
class SolveLog:
    """One SDP solve with its native encoding size."""

    purpose: str
    degree: int
    beta: float
    equalities: int
    decision_variables: int
    status: str
    margin: float | None = None

    def line(self) -> str:
        text = (f"solve {self.purpose} deg={self.degree} beta={self.beta:g}: "
                f"status={self.status} equalities={self.equalities} "
                f"decision_vars={self.decision_variables}")
        if self.margin is not None:
            text += f" margin={self.margin:.3e}"
        return text


@dataclass
class AbsorbingSearchResult:
    feasible: bool
    proven_infeasible: bool = False
    marginal: bool = False
    lyapunov: Polynomial | None = None
    multipliers: tuple | None = None
    decoded: DecodedSos | None = None
    encoding: SdpEncoding | None = None
    solution: SdpSolution | None = None
    margin: float | None = None
    degree: int = 0


def _even_floor(k: int) -> int:
    return k - (k % 2)


def _multiplier_basis(f: PolynomialVectorField, v_degree: int, beta: float,
                      homogeneous_v: bool):
    """Gram basis of the decay multiplier p_i for subsystem f and deg V.

    p_i has the largest even degree <= deg f + deg V - 3, and is
    homogeneous when V is, beta = 0 and f is linear (the decay identity is
    then homogeneous)."""
    top = max(0, _even_floor(f.degree() + v_degree - 3)) // 2
    low = top if homogeneous_v and beta == 0.0 and f.is_linear() else 0
    return monomial_basis(f.dimension, low, top)


def _default_deg_q(V: Polynomial) -> int:
    """Degree of the sublevel multiplier q: the largest even <= deg V - 2."""
    return max(0, _even_floor(V.degree() - 2))


def _sum_of_squares_norm(n: int) -> Polynomial:
    return even_power_norm(n, 1)


def build_absorbing_program(system: SwitchedSystem, ell: int, delta: float,
                            degree: int, beta: float,
                            homogeneous: bool | None = None) -> tuple:
    """SOS program for the decay identities; returns (program, norm poly)."""
    n = system.dimension
    if homogeneous is None:
        homogeneous = degree == 2 * ell
    if homogeneous and degree != 2 * ell:
        raise ValueError("homogeneous V requires degree == 2*ell")
    nrm = even_power_norm(n, ell)
    sumsq = _sum_of_squares_norm(n)

    if homogeneous:
        s_basis = monomial_basis(n, degree // 2, degree // 2)
    else:
        s_basis = monomial_basis(n, 1, degree // 2)
    unknowns = [SosUnknown("S", s_basis, role="lyapunov")]
    identities = []
    for i, f in enumerate(system.fields, start=1):
        unknowns.append(SosUnknown(
            f"p{i}", _multiplier_basis(f, degree, beta, homogeneous)))
        known = (-delta) * lie_derivative(nrm, f) - delta * nrm
        identities.append(SosIdentity(
            name=f"decay{i}",
            dimension=n,
            known=known,
            terms=(
                UnknownLieTerm("S", f, scale=-1.0),
                UnknownTerm(f"p{i}", Polynomial.constant(n, beta) - sumsq),
            )))
    program = SosProgram(identities=tuple(identities), unknowns=tuple(unknowns))
    return program, nrm


def find_absorbing_lyapunov(system: SwitchedSystem,
                            query: CertificationQuery,
                            logs: list | None = None) -> AbsorbingSearchResult:
    """Solve the decay identities at fixed beta and degree.

    Feasibility is declared only when every Gram block is PSD within
    psd_tol; a feasible solve that misses the bar is reported as marginal.
    Proven infeasibility and numerical failure are kept distinct, and the
    strict margin is recorded in the solve log.
    """
    if query.beta is None:
        raise ValueError("query.beta must be a fixed scalar here")
    degree = query.degree if query.degree is not None else 2 * query.ell
    program, nrm = build_absorbing_program(
        system, query.ell, query.delta, degree, query.beta, query.homogeneous)
    encoding = encode(program)
    solution = solve(encoding.problem, query.solver)
    margin = None
    if solution.feasible:
        margin = strict_feasibility_margin(
            encoding.problem, solution, query.solver)

    if logs is not None:
        logs.append(SolveLog(
            purpose="decay", degree=degree, beta=query.beta,
            equalities=encoding.n_equalities,
            decision_variables=encoding.n_decision_variables,
            status=solution.status, margin=margin))

    if solution.status == sdp.STATUS_INFEASIBLE:
        return AbsorbingSearchResult(
            feasible=False, proven_infeasible=True, solution=solution,
            encoding=encoding, degree=degree)
    if solution.status == sdp.STATUS_FAILURE:
        raise NumericalFailureError(
            f"decay program at beta={query.beta:g}, degree={degree}: "
            f"{solution.message}")
    # acceptance bar: PSD up to psd_tol.  Structurally rank-deficient Gram
    # faces are unavoidable for vector fields whose top-degree part vanishes
    # on a subspace, so a strictly positive margin cannot be required.
    if min(solution.min_eigenvalues) < -query.solver.psd_tol:
        return AbsorbingSearchResult(
            feasible=False, marginal=True, solution=solution,
            encoding=encoding, margin=margin, degree=degree)

    decoded = decode(encoding, solution)
    V = decoded.polynomials["S"] + query.delta * nrm
    multipliers = tuple(decoded.polynomials[f"p{i}"]
                        for i in range(1, system.n_subsystems + 1))
    return AbsorbingSearchResult(
        feasible=True, lyapunov=V, multipliers=multipliers, decoded=decoded,
        encoding=encoding, solution=solution, margin=margin, degree=degree)


def find_common_lyapunov(system: SwitchedSystem, query: CertificationQuery,
                         logs: list | None = None) -> AbsorbingSearchResult:
    """beta = 0 search, equivalent to a common Lyapunov function."""
    if query.beta not in (None, 0, 0.0):
        raise ValueError("common Lyapunov search requires beta = 0")
    for i, f in enumerate(system.fields, start=1):
        offset = [abs(c.constant_term()) for c in f.components]
        if max(offset) > 1e-12:
            raise EquilibriumError(
                f"subsystem {i} does not vanish at the origin "
                f"(constant terms up to {max(offset):g})")
    query = dataclasses.replace(query, beta=0.0)
    return find_absorbing_lyapunov(system, query, logs)


@dataclass
class GammaOutcome:
    gamma: float
    radius_multiplier: Polynomial
    decoded: DecodedSos
    encoding: SdpEncoding
    solution: SdpSolution


def minimize_gamma(system: SwitchedSystem, V: Polynomial, beta: float,
                   deg_q: int | None = None,
                   solver: SolverConfig | None = None,
                   logs: list | None = None) -> GammaOutcome:
    """Smallest gamma with -(V - gamma) + q*(||x||^2 - beta) SOS.

    gamma enters the SDP objective linearly, so no bisection is needed.
    """
    n = system.dimension
    if V.dimension != n:
        raise ValueError("Lyapunov dimension mismatch")
    solver = solver or SolverConfig()
    if deg_q is None:
        deg_q = _default_deg_q(V)
    sumsq = _sum_of_squares_norm(n)
    q_basis = monomial_basis(n, 0, deg_q // 2)
    identity = SosIdentity(
        name="sublevel",
        dimension=n,
        known=-V,
        terms=(
            ScalarTerm("gamma", Polynomial.constant(n, 1.0)),
            UnknownTerm("q", sumsq - Polynomial.constant(n, beta)),
        ))
    program = SosProgram(
        identities=(identity,),
        unknowns=(SosUnknown("q", q_basis),),
        scalars=("gamma",),
        objective={"gamma": 1.0})
    encoding = encode(program)
    solution = solve(encoding.problem, solver)
    if logs is not None:
        logs.append(SolveLog(
            purpose="sublevel", degree=V.degree(), beta=beta,
            equalities=encoding.n_equalities,
            decision_variables=encoding.n_decision_variables,
            status=solution.status))
    if solution.status == sdp.STATUS_INFEASIBLE:
        raise GammaInfeasibleError(
            f"sublevel program infeasible at deg(q)={deg_q}; raise deg_q")
    if not solution.feasible:
        raise NumericalFailureError(f"sublevel program: {solution.message}")
    decoded = decode(encoding, solution)
    gamma = max(decoded.scalars["gamma"], 0.0)
    return GammaOutcome(gamma, decoded.polynomials["q"], decoded, encoding,
                        solution)


@dataclass
class TightenOutcome:
    beta_star: float
    result: AbsorbingSearchResult
    probes: tuple           # (beta, "certified"|"infeasible"|"inconclusive")
    monotonicity_violations: tuple


def tighten_beta(system: SwitchedSystem, query: CertificationQuery,
                 logs: list | None = None) -> TightenOutcome:
    """Bisect beta down from a feasible beta_max to absolute tolerance.

    Feasibility is assumed monotone in beta; the probe record is checked for
    violations of that assumption and any are reported, not hidden.
    """
    if query.beta_max is None:
        raise ValueError("query.beta_max must be set")
    probes = []

    def probe(beta):
        sub = dataclasses.replace(query, beta=beta, beta_max=None)
        try:
            result = find_absorbing_lyapunov(system, sub, logs)
        except NumericalFailureError:
            probes.append((beta, "inconclusive"))
            return None
        if result.feasible:
            probes.append((beta, "certified"))
        elif result.proven_infeasible:
            probes.append((beta, "infeasible"))
        else:
            probes.append((beta, "inconclusive"))
        return result

    best = probe(query.beta_max)
    if best is None or not best.feasible:
        raise ValueError(
            f"beta_max={query.beta_max:g} is not certifiably feasible")
    hi = query.beta_max

    zero = probe(0.0)
    if zero is not None and zero.feasible:
        best, hi = zero, 0.0
        lo = 0.0
    else:
        lo = 0.0
        while hi - lo > query.beta_tol:
            mid = 0.5 * (lo + hi)
            result = probe(mid)
            if result is not None and result.feasible:
                best, hi = result, mid
            else:
                lo = mid

    certified = [b for b, s in probes if s == "certified"]
    infeasible = [b for b, s in probes if s == "infeasible"]
    violations = tuple(
        (bc, bi) for bc in certified for bi in infeasible if bi > bc)
    return TightenOutcome(hi, best, tuple(probes), violations)


@dataclass
class CqlfOutcome:
    b_max: float
    probes: tuple


def cqlf_bisection(matrices_of_b: Callable[[float], Sequence[np.ndarray]],
                   interval: tuple, tol: float = 0.01,
                   solver: SolverConfig | None = None) -> CqlfOutcome:
    """Largest parameter with a common quadratic Lyapunov function.

    Uses the degree-2 SOS encoding of the strict LMI pair P > 0,
    P A_i + A_i^T P < 0, whose feasibility is scale invariant.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("need a non-empty interval")
    solver = solver or SolverConfig()
    probes = []

    def feasible(b: float) -> bool:
        system = SwitchedSystem.from_matrices(matrices_of_b(b))
        query = CertificationQuery(ell=1, delta=1.0, degree=2, beta=0.0,
                                   solver=solver)
        try:
            result = find_common_lyapunov(system, query)
        except NumericalFailureError:
            probes.append((b, "inconclusive"))
            return False
        probes.append((b, "certified" if result.feasible else "infeasible"))
        return result.feasible

    if not feasible(lo):
        raise ValueError(f"no common quadratic Lyapunov function at b={lo:g}")
    if feasible(hi):
        return CqlfOutcome(hi, tuple(probes))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return CqlfOutcome(lo, tuple(probes))


# -- verification ---------------------------------------------------------------


def _check_sos_membership(poly: Polynomial, residual_tol: float,
                          eig_tol: float, solver: SolverConfig):
    """Robust SOS membership: minimise t with poly + t * sum(chi_i^2) SOS.

    Always feasible (t >= ||M||_2 works for any Gram representation M), so a
    certificate exactly on the SOS boundary re-verifies instead of tripping
    over round-off; t* above the scaled residual tolerance is a failure.
    Returns (scaled residual, Gram min eigenvalue) or an error string.
    """
    if poly.is_zero():
        return 0.0, 0.0
    n = poly.dimension
    # normalise the coefficient scale; membership is invariant under positive
    # scaling and the tolerances below are the scaled ones
    norm_scale = 1.0 + poly.max_abs_coefficient()
    poly = poly * (1.0 / norm_scale)
    probe = SosIdentity(name="membership", dimension=n, known=poly, terms=())
    basis = _sos_identity_basis(probe, set(poly.terms), n)
    envelope = gram_expand(basis, np.eye(len(basis)))
    identity = SosIdentity(
        name="membership", dimension=n, known=poly,
        terms=(ScalarTerm("slack", envelope),))
    try:
        encoding = encode(SosProgram(
            identities=(identity,), unknowns=(), scalars=("slack",),
            objective={"slack": 1.0}))
    except ValueError as exc:
        return f"not representable: {exc}"
    solution = solve(encoding.problem, solver)
    if not solution.feasible:
        return f"membership solve failed ({solution.status})"
    scale = 1.0 + poly.max_abs_coefficient()
    slack = float(solution.free[encoding.scalar_index["slack"]])
    if slack > 10.0 * residual_tol * scale:
        return (f"SOS defect {slack:.3e} exceeds scaled tolerance "
                f"{residual_tol * scale:.3e}")
    # envelope = gram_expand(I), so shifting the Gram by -min(t*, 0) * I
    # absorbs any negative slack exactly and restores a PSD witness for
    # the polynomial itself
    R = solution.blocks[encoding.identity_blocks["membership"]]
    R = R - min(slack, 0.0) * np.eye(R.shape[0])
    residual_poly = poly - gram_expand(encoding.identity_bases["membership"], R)
    residual = residual_poly.max_abs_coefficient() / scale
    margin = sdp.min_eigenvalue(R)
    threshold = -eig_tol * (1.0 + float(np.trace(R)))
    if residual > residual_tol:
        return f"Gram residual {residual:.3e} exceeds {residual_tol:g}"
    if margin < threshold:
        return f"Gram min eigenvalue {margin:.3e} below {threshold:.3e}"
    return residual, margin


def _solve_for_multipliers(system, cert, solver):
    """Reconstruct missing SOS witnesses with the certificate's V fixed."""
    n = system.dimension
    sumsq = _sum_of_squares_norm(n)
    nrm = even_power_norm(n, cert.ell)
    identities = []
    unknowns = []
    for i, f in enumerate(system.fields, start=1):
        unknowns.append(SosUnknown(f"p{i}", _multiplier_basis(
            f, cert.lyapunov.degree(), cert.beta,
            cert.lyapunov.is_homogeneous())))
        known = (-1.0) * lie_derivative(cert.lyapunov, f) - cert.delta * nrm
        identities.append(SosIdentity(
            name=f"decay{i}", dimension=n, known=known,
            terms=(UnknownTerm(f"p{i}",
                               Polynomial.constant(n, cert.beta) - sumsq),)))
    program = SosProgram(identities=tuple(identities), unknowns=tuple(unknowns))
    encoding = encode(program)
    solution = solve(encoding.problem, solver)
    if not solution.feasible:
        return None, f"decay witnesses not found ({solution.status})"
    decoded = decode(encoding, solution)
    return tuple(decoded.polynomials[f"p{i}"]
                 for i in range(1, system.n_subsystems + 1)), None


def _solve_for_radius_multiplier(system, cert, solver):
    n = system.dimension
    sumsq = _sum_of_squares_norm(n)
    deg_q = _default_deg_q(cert.lyapunov)
    identity = SosIdentity(
        name="sublevel", dimension=n,
        known=Polynomial.constant(n, cert.gamma) - cert.lyapunov,
        terms=(UnknownTerm("q", sumsq - Polynomial.constant(n, cert.beta)),))
    program = SosProgram(identities=(identity,),
                         unknowns=(SosUnknown("q", monomial_basis(n, 0, deg_q // 2)),))
    encoding = encode(program)
    solution = solve(encoding.problem, solver)
    if not solution.feasible:
        return None, f"sublevel witness not found ({solution.status})"
    return decode(encoding, solution).polynomials["q"], None


def verify_certificate(system: SwitchedSystem, cert: AbsorbingSetCertificate,
                       sample_count: int = 2000, residual_tol: float = 1e-6,
                       eig_tol: float = 1e-7, seed: int = 0,
                       solver: SolverConfig | None = None) -> VerificationReport:
    """Independent numerical verification of a certificate.

    (a) every SOS identity re-expands against a freshly derived Gram matrix
    with a small scaled residual; (b) all Gram matrices are PSD up to a
    scaled eigenvalue slack; (c) the worst subsystem derivative of V is
    negative on sampled shells outside the beta ball; (d) sampled points of
    the beta ball stay inside {V <= gamma}.  Any failure raises
    CertificateRejectedError naming the failed checks.
    """
    if cert.dimension != system.dimension:
        raise ValueError("certificate dimension does not match system")
    solver = solver or SolverConfig()
    failures = []
    identity_residuals = {}
    gram_margins = {}
    n = system.dimension
    nrm = even_power_norm(n, cert.ell)
    sumsq = _sum_of_squares_norm(n)

    multipliers = cert.multipliers
    if multipliers is None:
        multipliers, err = _solve_for_multipliers(system, cert, solver)
        if err:
            failures.append(f"identity-decay ({err})")
    radius_multiplier = cert.radius_multiplier
    if radius_multiplier is None and cert.gamma is not None:
        radius_multiplier, err = _solve_for_radius_multiplier(
            system, cert, solver)
        if err:
            failures.append(f"identity-sublevel ({err})")

    def membership(name, poly):
        outcome = _check_sos_membership(poly, residual_tol, eig_tol, solver)
        if isinstance(outcome, str):
            failures.append(f"{name} ({outcome})")
        else:
            identity_residuals[name], margin = outcome
            gram_margins[name] = (margin, eig_tol)

    membership("lyapunov-lower-bound", cert.lyapunov - cert.delta * nrm)
    if multipliers is not None:
        for i, (p, f) in enumerate(zip(multipliers, system.fields), start=1):
            membership(f"multiplier-p{i}", p)
            expr = (-1.0) * lie_derivative(cert.lyapunov, f) \
                - p * (sumsq - Polynomial.constant(n, cert.beta)) \
                - cert.delta * nrm
            membership(f"identity-decay{i}", expr)
    if cert.gamma is not None and radius_multiplier is not None:
        membership("multiplier-q", radius_multiplier)
        expr = Polynomial.constant(n, cert.gamma) - cert.lyapunov \
            + radius_multiplier * (sumsq - Polynomial.constant(n, cert.beta))
        membership("identity-sublevel", expr)

    # sampling checks with a deterministic generator
    rng = np.random.default_rng(seed)
    lies = [lie_derivative(cert.lyapunov, f) for f in system.fields]
    lo, hi = (cert.beta, 4.0 * cert.beta) if cert.beta > 0 else (1.0, 4.0)

    def shell_points(count):
        dirs = rng.normal(size=(count, n))
        norms = np.linalg.norm(dirs, axis=1)
        norms[norms == 0] = 1.0
        dirs /= norms[:, None]
        radii = np.sqrt(rng.uniform(lo, hi, size=count))
        return dirs * radii[:, None]

    points = shell_points(sample_count)
    if cert.gamma is not None:
        keep = cert.lyapunov.evaluate_many(points) > cert.gamma
        outside = points[keep]
        topup = 0
        while len(outside) < sample_count and topup < 8:
            extra = shell_points(sample_count)
            mask = cert.lyapunov.evaluate_many(extra) > cert.gamma
            outside = np.vstack([outside, extra[mask]])
            topup += 1
        if len(outside) < max(16, sample_count // 10):
            # absorbing set swallows the sampled shells; the decay identity
            # already covers them, so fall back to unexcluded shell points
            outside = points
        points = outside[:sample_count] if len(outside) >= sample_count \
            else np.vstack([outside, points])[:sample_count]
    worst = np.full(len(points), -np.inf)
    for lie in lies:
        worst = np.maximum(worst, lie.evaluate_many(points))
    negativity_margin = float(np.min(-worst))
    if negativity_margin <= 0:
        failures.append(
            f"negativity (max subsystem derivative {-negativity_margin:.3e} "
            "on a sampled shell point)")

    containment_ok = None
    containment_slack = None
    if cert.gamma is not None:
        if cert.beta > 0:
            dirs = rng.normal(size=(sample_count, n))
            norms = np.linalg.norm(dirs, axis=1)
            norms[norms == 0] = 1.0
            dirs /= norms[:, None]
            radii = np.sqrt(cert.beta * rng.uniform(0.0, 1.0, size=sample_count))
            ball = dirs * radii[:, None]
        else:
            ball = np.zeros((1, n))
        v_ball = cert.lyapunov.evaluate_many(ball)
        containment_ok = bool(np.all(v_ball <= cert.gamma))
        if not containment_ok:
            failures.append(
                "containment (V exceeds gamma inside the beta ball)")
        inside = cert.lyapunov.evaluate_many(points) <= cert.gamma
        slack_pts = points[inside]
        slack = 0.0
        if len(slack_pts):
            slack = max(0.0, float(
                np.max(np.sum(slack_pts ** 2, axis=1))) - cert.beta)
        containment_slack = slack

    report = VerificationReport(
        identity_residuals=identity_residuals,
        gram_margins=gram_margins,
        negativity_margin=negativity_margin,
        containment_ok=containment_ok,
        containment_slack=containment_slack,
        sample_count=sample_count,
        seed=seed,
        failures=tuple(failures),
        residual_tol=residual_tol,
        eig_tol=eig_tol)
    if failures:
        raise CertificateRejectedError(report)
    return report


@dataclass(frozen=True)
class StabilityVerdict:
    kind: str
    beta: float
    gamma: float | None
    notes: tuple

    def __str__(self):
        return self.kind


def classify(system: SwitchedSystem,
             cert: AbsorbingSetCertificate) -> StabilityVerdict:
    """Stability verdict for a verified certificate.

    Linear subsystems with Hurwitz matrices and an absorbing set are
    globally asymptotically stable under arbitrary switching and admit no
    periodic switched solutions; anything else is ultimately bounded with
    absorbing set {V <= gamma}.
    """
    if cert.report is None or not cert.report.passed:
        raise ValueError("classify requires a certificate that passed "
                         "verification")
    notes = []
    if system.is_linear():
        hurwitz = []
        for A in system.linear_matrices():
            eigs = np.linalg.eigvals(A)
            hurwitz.append(bool(np.all(eigs.real < 0)))
        if all(hurwitz):
            notes.append("all subsystem matrices are Hurwitz")
            notes.append("no periodic switched solutions exist")
            return StabilityVerdict(GAS, cert.beta, cert.gamma, tuple(notes))
        notes.append("a subsystem matrix is not Hurwitz; "
                     "asymptotic stability is impossible under arbitrary "
                     "switching")
    if cert.gamma is not None:
        notes.append(f"absorbing set {{V <= {cert.gamma:.6g}}}")
    return StabilityVerdict(ULTIMATELY_BOUNDED, cert.beta, cert.gamma,
                            tuple(notes))


@dataclass
class CertificationOutcome:
    certificate: AbsorbingSetCertificate
    verdict: StabilityVerdict
    degree: int
    logs: list
    tighten: TightenOutcome | None = None


def escalate(system: SwitchedSystem,
             query: CertificationQuery) -> CertificationOutcome:
    """Full pipeline: escalate deg(V), tighten beta, minimise gamma, verify.

    Tries deg(V) = 2*ell, 2*ell + 2, ... up to the cap (or just the
    requested degree); the first feasible degree wins.
    """
    logs: list = []
    if query.beta is None and query.beta_max is None:
        raise ValueError("query needs beta or beta_max")
    probe_beta = query.beta if query.beta is not None else query.beta_max

    if query.degree is not None:
        degrees = [query.degree]
    elif query.homogeneous:
        degrees = [2 * query.ell]  # homogeneous V pins the degree
    else:
        degrees = list(range(2 * query.ell, query.degree_cap + 1, 2))
    if not degrees:
        raise ValueError("degree cap below 2*ell leaves nothing to try")

    result = None
    for degree in degrees:
        sub = dataclasses.replace(
            query, degree=degree, beta=probe_beta, beta_max=None)
        candidate = find_absorbing_lyapunov(system, sub, logs)
        if candidate.feasible:
            result = candidate
            break
    if result is None:
        raise InfeasibleAtCapError(
            f"no feasible degree up to {degrees[-1]} at beta={probe_beta:g}")

    tighten = None
    beta_star = probe_beta
    if query.beta_max is not None:
        sub = dataclasses.replace(query, degree=result.degree)
        tighten = tighten_beta(system, sub, logs)
        result = tighten.result
        beta_star = tighten.beta_star

    gamma_out = minimize_gamma(
        system, result.lyapunov, beta_star, deg_q=query.deg_q,
        solver=query.solver, logs=logs)

    cert = AbsorbingSetCertificate(
        dimension=system.dimension,
        n_subsystems=system.n_subsystems,
        lyapunov=result.lyapunov,
        beta=beta_star,
        delta=query.delta,
        ell=query.ell,
        gamma=gamma_out.gamma,
        multipliers=result.multipliers,
        radius_multiplier=gamma_out.radius_multiplier)
    cert.report = verify_certificate(
        system, cert, sample_count=query.verify_samples, seed=query.seed,
        solver=query.solver)
    verdict = classify(system, cert)
    cert.verdict = verdict.kind
    return CertificationOutcome(cert, verdict, result.degree, logs, tighten)
