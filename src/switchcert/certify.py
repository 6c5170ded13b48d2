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

Each program has one builder, which the search and the reconstruction of
witnesses a certificate omits share: build_absorbing_program (V unknown or
given) and _sublevel_program (gamma minimised or given).  escalate keeps
the decay search behind its certificate, whose encoding --dump-sdp
writes.  A multiplier (each p_i, and q unless deg_q is given) has the
degree _multiplier_degree gives: the largest even number at most the
degree of its identity minus 2, where the decay identity of f_i has degree
deg f_i + deg V - 1 and the sublevel identity deg V.  Every Gram basis
comes from sosprog.gram_basis.  A search reads its verdict off the solver
status alone, since sdp bars every point it reports by one PSD test: a
solution is feasible, a Farkas ray proves infeasibility, and anything else
is a numerical failure.  One rule, _probe, labels every bisection step.
Verification re-derives its membership polynomials on its own, so a faulty
builder cannot pass its own check.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .poly import (Polynomial, PolynomialVectorField, even_power_norm,
                   lie_derivative)
from . import sdp
from .sdp import SdpSolution, solve
from .sosprog import (ScalarTerm, SdpEncoding, SosIdentity,
                      SosProgram, SosUnknown, UnknownLieTerm, UnknownTerm,
                      decode, encode, gram_basis, gram_expand)

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
    """Parameters of one certification run; beta is a scalar or, given as
    beta_max instead (not both), an interval [0, beta_max], and degree None
    escalates from 2*ell to degree_cap."""

    ell: int = 1
    delta: float = 1.0
    degree: int | None = None
    beta: float | None = None
    beta_max: float | None = None
    degree_cap: int = 12
    deg_q: int | None = None
    beta_tol: float = 0.05
    verify_samples: int = 2000
    seed: int = 0

    def __post_init__(self):
        _check_constants(self.ell, self.delta, beta=self.beta,
                         beta_max=self.beta_max)
        if self.beta is not None and self.beta_max is not None:
            raise ValueError("give beta or beta_max, not both")
        if self.degree is not None:
            if self.degree % 2 or self.degree < 2 * self.ell:
                raise ValueError("degree must be even and at least 2*ell")
        if self.deg_q is not None and self.deg_q < 0:
            raise ValueError("deg_q must be a non-negative integer")
        if self.deg_q is not None and self.deg_q % 2:
            raise ValueError("deg_q must be even")
        check_positive(("beta_tol", self.beta_tol))


@dataclass
class VerificationReport:
    """Outcome of the independent certificate checks."""

    identity_residuals: dict
    gram_margins: dict
    negativity_margin: float | None
    containment_ok: bool | None
    sample_count: int
    seed: int
    failures: tuple
    residual_tol: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_lines(self) -> list:
        worst_res = max(self.identity_residuals.values(), default=0.0)
        worst_eig = min(self.gram_margins.values(), default=0.0)
        lines = [
            f"residual_max {worst_res:.3e} (tol {self.residual_tol:g})",
            f"gram_min_eig {worst_eig:.3e}",
        ]
        if self.negativity_margin is not None:
            lines.append(f"negativity_margin {self.negativity_margin:.6g}")
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

    def __post_init__(self):
        _check_constants(self.ell, self.delta, beta=self.beta)
        if self.gamma is not None and not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite")


@dataclass
class SolveLog:
    """One SDP solve with its native encoding size.

    equalities and decision_variables describe the program as posed: one
    equality per monomial of each identity's support, and every Gram
    upper-triangle entry and free scalar.  rows counts the SDP rows
    actually solved, which leave out the equalities that the program's
    sign symmetries make vacuous (sosprog.encode).  min_eig is the
    smallest eigenvalue of the solved Gram blocks, when there is a
    solution; sdp accepts a point only when it is at least -sdp.PSD_TOL."""

    purpose: str
    degree: int
    beta: float
    equalities: int
    decision_variables: int
    rows: int
    status: str
    min_eig: float | None = None

    @classmethod
    def of(cls, purpose: str, degree: int, beta: float,
           encoding: SdpEncoding, solution: SdpSolution) -> SolveLog:
        """The log of one solve of an encoded program."""
        return cls(purpose, degree, beta, encoding.n_equalities,
                   encoding.n_decision_variables, encoding.problem.m,
                   solution.status,
                   min(solution.min_eigenvalues) if solution.feasible
                   else None)

    def line(self) -> str:
        text = (f"solve {self.purpose} deg={self.degree} beta={self.beta:g}: "
                f"status={self.status} equalities={self.equalities} "
                f"decision_vars={self.decision_variables} rows={self.rows}")
        if self.min_eig is not None:
            text += f" min_eig={self.min_eig:.3e}"
        return text


@dataclass
class AbsorbingSearchResult:
    """A decay search that ended in a verdict: feasible with V and its
    multipliers, or else proven infeasible by the solution's Farkas ray."""

    feasible: bool
    lyapunov: Polynomial | None = None
    multipliers: tuple | None = None
    encoding: SdpEncoding | None = None
    solution: SdpSolution | None = None
    degree: int = 0

    @property
    def proven_infeasible(self) -> bool:
        return not self.feasible


def _multiplier_degree(D: int) -> int:
    """Degree of an SOS multiplier in an identity of degree D: the largest
    even number <= D - 2, and at least 0."""
    return max(0, D - 2 - D % 2)


def build_absorbing_program(system: SwitchedSystem, ell: int, delta: float,
                            degree: int, beta: float,
                            lyapunov: Polynomial | None = None) -> tuple:
    """decay{i}: -f_i . grad V - p_i*(||x||_2^2 - beta) - delta*nrm is SOS
    for each subsystem i, with nrm = ||x||_{2l}^{2l}.  Without lyapunov,
    V = S + delta*nrm with S unknown over degrees 2..degree, and homogeneous
    (only degree) when degree == 2*ell; with it, V is that polynomial and
    only the multipliers p_i are unknown.  Returns (program, nrm)."""
    homogeneous = degree == 2 * ell if lyapunov is None \
        else lyapunov.is_homogeneous()
    n = system.dimension
    nrm = even_power_norm(n, ell)
    in_ball = Polynomial.constant(n, beta) - even_power_norm(n, 1)
    unknowns = []
    if lyapunov is None:
        low = degree if homogeneous else 2
        unknowns.append(SosUnknown("S", gram_basis(n, low, degree)))
    identities = []
    for i, f in enumerate(system.fields, start=1):
        # p_i is homogeneous when the decay identity is
        d = _multiplier_degree(f.degree() + degree - 1)
        low = d if homogeneous and beta == 0.0 and f.is_linear() else 0
        unknowns.append(SosUnknown(f"p{i}", gram_basis(n, low, d)))
        terms = (UnknownTerm(f"p{i}", in_ball),)
        if lyapunov is None:
            known = (-delta) * lie_derivative(nrm, f)
            terms = (UnknownLieTerm("S", f, scale=-1.0),) + terms
        else:
            known = (-1.0) * lie_derivative(lyapunov, f)
        identities.append(SosIdentity(
            name=f"decay{i}", dimension=n, known=known - delta * nrm,
            terms=terms))
    program = SosProgram(identities=tuple(identities), unknowns=tuple(unknowns))
    return program, nrm


def _sublevel_program(V: Polynomial, beta: float, deg_q: int,
                      gamma: float | None = None) -> SosProgram:
    """sublevel: gamma - V + q*(||x||_2^2 - beta) is SOS, with q unknown of
    degree deg_q, and gamma a free scalar that the objective minimises or,
    when given, a fixed level."""
    n = V.dimension
    terms = (UnknownTerm(
        "q", even_power_norm(n, 1) - Polynomial.constant(n, beta)),)
    if gamma is None:
        known, scalars, objective = -V, ("gamma",), {"gamma": 1.0}
        terms = (ScalarTerm("gamma", Polynomial.constant(n, 1.0)),) + terms
    else:
        known, scalars, objective = Polynomial.constant(n, gamma) - V, (), None
    return SosProgram(
        identities=(SosIdentity("sublevel", n, known, terms),),
        unknowns=(SosUnknown("q", gram_basis(n, 0, deg_q)),),
        scalars=scalars, objective=objective)


def find_absorbing_lyapunov(system: SwitchedSystem,
                            query: CertificationQuery,
                            logs: list | None = None) -> AbsorbingSearchResult:
    """Solve the decay identities at fixed beta and degree.

    The verdict is the solver's status: a solution (whose Gram blocks sdp
    has found PSD) is feasible, a Farkas ray is proven infeasibility, and
    anything else raises NumericalFailureError.  The smallest Gram
    eigenvalue of a solution is recorded in the solve log.
    """
    if query.beta is None:
        raise ValueError("query.beta must be a fixed scalar here")
    degree = query.degree if query.degree is not None else 2 * query.ell
    program, nrm = build_absorbing_program(
        system, query.ell, query.delta, degree, query.beta)
    encoding = encode(program)
    solution = solve(encoding.problem)

    if logs is not None:
        logs.append(SolveLog.of("decay", degree, query.beta, encoding,
                                solution))

    if solution.status == sdp.STATUS_INFEASIBLE:
        return AbsorbingSearchResult(
            feasible=False, solution=solution, encoding=encoding,
            degree=degree)
    if solution.status == sdp.STATUS_FAILURE:
        raise NumericalFailureError(
            f"decay program at beta={query.beta:g}, degree={degree}: "
            f"{solution.message}")

    decoded = decode(encoding, solution)
    V = decoded.polynomials["S"] + query.delta * nrm
    multipliers = tuple(decoded.polynomials[f"p{i}"]
                        for i in range(1, system.n_subsystems + 1))
    return AbsorbingSearchResult(
        feasible=True, lyapunov=V, multipliers=multipliers,
        encoding=encoding, solution=solution, degree=degree)


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


def minimize_gamma(system: SwitchedSystem, V: Polynomial, beta: float,
                   deg_q: int | None = None,
                   logs: list | None = None) -> GammaOutcome:
    """Smallest gamma with -(V - gamma) + q*(||x||^2 - beta) SOS.

    gamma enters the SDP objective linearly, so no bisection is needed.
    """
    if V.dimension != system.dimension:
        raise ValueError("Lyapunov dimension mismatch")
    if deg_q is None:
        deg_q = _multiplier_degree(V.degree())
    encoding = encode(_sublevel_program(V, beta, deg_q))
    solution = solve(encoding.problem)
    if logs is not None:
        logs.append(SolveLog.of("sublevel", V.degree(), beta, encoding,
                                solution))
    if solution.status == sdp.STATUS_INFEASIBLE:
        raise GammaInfeasibleError(
            f"sublevel program infeasible at deg(q)={deg_q}; raise deg_q")
    if not solution.feasible:
        raise NumericalFailureError(f"sublevel program: {solution.message}")
    decoded = decode(encoding, solution)
    return GammaOutcome(max(decoded.scalars["gamma"], 0.0),
                        decoded.polynomials["q"])


def _probe(search, system: SwitchedSystem, query: CertificationQuery,
           logs: list | None) -> tuple:
    """(label, result) of one bisection step: "certified" when the search
    is feasible, "infeasible" when it returned a Farkas ray, and
    "inconclusive", with result None, only when it raised
    NumericalFailureError."""
    try:
        result = search(system, query, logs)
    except NumericalFailureError:
        return "inconclusive", None
    return ("certified" if result.feasible else "infeasible"), result


def _bisect(passes: Callable[[float], bool], good: float, bad: float,
            tol: float) -> float:
    """Narrow the interval between a passing and a failing endpoint (in
    either order) by probing midpoints, until it is at most tol wide or the
    midpoint no longer lies strictly between the endpoints; returns the
    passing endpoint."""
    while abs(bad - good) > tol:
        mid = 0.5 * (good + bad)
        if not min(good, bad) < mid < max(good, bad):
            break
        if passes(mid):
            good = mid
        else:
            bad = mid
    return good


@dataclass
class TightenOutcome:
    beta_star: float
    result: AbsorbingSearchResult
    probes: tuple           # (beta, "certified"|"infeasible"|"inconclusive")
    monotonicity_violations: tuple


def tighten_beta(system: SwitchedSystem, query: CertificationQuery,
                 logs: list | None = None, *,
                 _at_beta_max: AbsorbingSearchResult | None = None
                 ) -> TightenOutcome:
    """Bisect beta down from a feasible beta_max to absolute tolerance.

    Feasibility is assumed monotone in beta; the probe record is checked for
    violations of that assumption and any are reported, not hidden.
    escalate passes the search it has already certified at beta_max as
    _at_beta_max, which stands for that probe instead of a second solve.
    """
    if query.beta_max is None:
        raise ValueError("query.beta_max must be set")
    probes = []
    results = {}

    def certified(beta, known=None) -> bool:
        if known is None:
            sub = dataclasses.replace(query, beta=beta, beta_max=None)
            label, result = _probe(find_absorbing_lyapunov, system, sub, logs)
        else:
            label, result = "certified", known
        probes.append((beta, label))
        if label == "certified":
            results[beta] = result
        return label == "certified"

    if not certified(query.beta_max, _at_beta_max):
        raise ValueError(
            f"beta_max={query.beta_max:g} is not certifiably feasible")
    beta_star = 0.0 if certified(0.0) else _bisect(
        certified, query.beta_max, 0.0, query.beta_tol)

    certified_at = [b for b, s in probes if s == "certified"]
    infeasible_at = [b for b, s in probes if s == "infeasible"]
    violations = tuple(
        (bc, bi) for bc in certified_at for bi in infeasible_at if bi > bc)
    return TightenOutcome(beta_star, results[beta_star], tuple(probes),
                          violations)


@dataclass
class CqlfOutcome:
    b_max: float
    probes: tuple


def cqlf_bisection(matrices_of_b: Callable[[float], Sequence[np.ndarray]],
                   interval: tuple, tol: float = 0.01) -> CqlfOutcome:
    """Largest parameter with a common quadratic Lyapunov function.

    Uses the degree-2 SOS encoding of the strict LMI pair P > 0,
    P A_i + A_i^T P < 0, whose feasibility is scale invariant.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("need a non-empty interval")
    check_positive(("tol", tol))
    probes = []

    def feasible(b: float) -> bool:
        system = SwitchedSystem.from_matrices(matrices_of_b(b))
        query = CertificationQuery(ell=1, delta=1.0, degree=2, beta=0.0)
        label, _ = _probe(find_common_lyapunov, system, query, None)
        probes.append((b, label))
        return label == "certified"

    if not feasible(lo):
        raise ValueError(f"no common quadratic Lyapunov function at b={lo:g}")
    if feasible(hi):
        return CqlfOutcome(hi, tuple(probes))
    return CqlfOutcome(_bisect(feasible, lo, hi, tol), tuple(probes))


# -- verification ---------------------------------------------------------------


# scaled eigenvalue slack of a membership Gram matrix: its smallest
# eigenvalue may sit at -GRAM_EIG_SLACK * (1 + trace)
GRAM_EIG_SLACK = 1e-7


def _check_sos_membership(poly: Polynomial, residual_tol: float):
    """Robust SOS membership: minimise t with poly + t * sum(chi_i^2) SOS.

    Always feasible (t >= ||M||_2 works for any Gram representation M), so a
    certificate exactly on the SOS boundary re-verifies instead of tripping
    over round-off; t* above the scaled residual tolerance is a failure.
    Returns (scaled residual, Gram min eigenvalue) or an error string; a
    polynomial of odd top degree fails before any basis or solve.
    """
    n = poly.dimension
    # normalise the coefficient scale; membership is invariant under positive
    # scaling and the tolerances below are the scaled ones.  The scaling can
    # underflow small coefficients and drop their terms, so the zero and
    # degree checks read the scaled polynomial, whose terms fix the basis
    norm_scale = 1.0 + poly.max_abs_coefficient()
    poly = poly * (1.0 / norm_scale)
    if poly.is_zero():
        return 0.0, 0.0
    if poly.degree() % 2:
        return f"odd top degree {poly.degree()}: not a sum of squares"
    degrees = [sum(m) for m in poly.terms]
    basis = gram_basis(n, min(degrees), max(degrees))
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
    solution = solve(encoding.problem)
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
    R = decode(encoding, solution).grams["membership"]
    R = R - min(slack, 0.0) * np.eye(R.shape[0])
    basis = encoding.bases[encoding.blocks["membership"]]
    residual_poly = poly - gram_expand(basis, R)
    residual = residual_poly.max_abs_coefficient() / scale
    margin = sdp.min_eigenvalue(R)
    threshold = -GRAM_EIG_SLACK * (1.0 + float(np.trace(R)))
    if residual > residual_tol:
        return f"Gram residual {residual:.3e} exceeds {residual_tol:g}"
    if margin < threshold:
        return f"Gram min eigenvalue {margin:.3e} below {threshold:.3e}"
    return residual, margin


def check_positive(*named) -> None:
    """Raise at the first (name, value) pair that is not finite and positive."""
    for name, value in named:
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive")


def _check_constants(ell: int, delta: float, **levels) -> None:
    """Raise unless ell >= 1, delta is finite and positive, and each named
    level that is given (beta, beta_max) is finite and non-negative."""
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError("delta must be positive and finite")
    for name, value in levels.items():
        if value is not None and not (np.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be non-negative and finite")


def check_matches(cert: AbsorbingSetCertificate,
                  system: SwitchedSystem) -> None:
    """Raise unless the certificate has the system's dimension and number of
    subsystems, and one decay multiplier per subsystem if it has any."""
    if cert.dimension != system.dimension \
            or cert.n_subsystems != system.n_subsystems \
            or (cert.multipliers is not None
                and len(cert.multipliers) != system.n_subsystems):
        raise ValueError("certificate does not match system dimensions")


def verify_certificate(system: SwitchedSystem, cert: AbsorbingSetCertificate,
                       sample_count: int = 2000, residual_tol: float = 1e-6,
                       seed: int = 0) -> VerificationReport:
    """Independent numerical verification of a certificate.

    (a) every SOS identity re-expands against a freshly derived Gram matrix
    with a small scaled residual; (b) all Gram matrices are PSD up to the
    scaled eigenvalue slack GRAM_EIG_SLACK; (c) the worst subsystem
    derivative of V is negative on sampled shells outside the beta ball;
    (d) sampled points of the beta ball stay inside {V <= gamma}.  Any
    failure raises CertificateRejectedError naming the failed checks; a
    certificate that does not match the system, a residual_tol that is not
    finite and positive, or no samples, raise ValueError.
    """
    check_matches(cert, system)
    check_positive(("residual_tol", residual_tol))
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    failures = []
    identity_residuals = {}
    gram_margins = {}
    n = system.dimension
    nrm = even_power_norm(n, cert.ell)
    sumsq = even_power_norm(n, 1)

    def witnesses(program, name, missing):
        """Solve the search program of a witness the certificate omits."""
        encoding = encode(program)
        solution = solve(encoding.problem)
        if not solution.feasible:
            failures.append(
                f"identity-{name} ({missing} not found ({solution.status}))")
            return None
        return decode(encoding, solution).polynomials

    V = cert.lyapunov
    multipliers = cert.multipliers
    if multipliers is None:
        program, _ = build_absorbing_program(
            system, cert.ell, cert.delta, V.degree(), cert.beta, lyapunov=V)
        found = witnesses(program, "decay", "decay witnesses")
        if found is not None:
            multipliers = tuple(found[f"p{i}"]
                                for i in range(1, system.n_subsystems + 1))
    radius_multiplier = cert.radius_multiplier
    if radius_multiplier is None and cert.gamma is not None:
        found = witnesses(
            _sublevel_program(V, cert.beta, _multiplier_degree(V.degree()),
                              cert.gamma),
            "sublevel", "sublevel witness")
        if found is not None:
            radius_multiplier = found["q"]

    def membership(name, poly):
        outcome = _check_sos_membership(poly, residual_tol)
        if isinstance(outcome, str):
            failures.append(f"{name} ({outcome})")
        else:
            identity_residuals[name], gram_margins[name] = outcome

    lies = [lie_derivative(cert.lyapunov, f) for f in system.fields]
    membership("lyapunov-lower-bound", cert.lyapunov - cert.delta * nrm)
    if multipliers is not None:
        for i, (p, lie) in enumerate(zip(multipliers, lies), start=1):
            membership(f"multiplier-p{i}", p)
            expr = (-1.0) * lie \
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
    lo, hi = (cert.beta, 4.0 * cert.beta) if cert.beta > 0 else (1.0, 4.0)

    def shell_points(count, lo=lo, hi=hi):
        """Uniform directions at squared radii uniform in [lo, hi]."""
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
    if cert.gamma is not None:
        ball = shell_points(sample_count, 0.0, cert.beta) if cert.beta > 0 \
            else np.zeros((1, n))
        v_ball = cert.lyapunov.evaluate_many(ball)
        containment_ok = bool(np.all(v_ball <= cert.gamma))
        if not containment_ok:
            failures.append(
                "containment (V exceeds gamma inside the beta ball)")

    report = VerificationReport(
        identity_residuals=identity_residuals,
        gram_margins=gram_margins,
        negativity_margin=negativity_margin,
        containment_ok=containment_ok,
        sample_count=sample_count,
        seed=seed,
        failures=tuple(failures),
        residual_tol=residual_tol)
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
    search: AbsorbingSearchResult   # the decay search behind the certificate
    logs: list
    tighten: TightenOutcome | None = None

    @property
    def degree(self) -> int:
        return self.search.degree


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
        tighten = tighten_beta(system, sub, logs, _at_beta_max=result)
        result, beta_star = tighten.result, tighten.beta_star

    gamma_out = minimize_gamma(
        system, result.lyapunov, beta_star, deg_q=query.deg_q, logs=logs)

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
        system, cert, sample_count=query.verify_samples, seed=query.seed)
    verdict = classify(system, cert)
    cert.verdict = verdict.kind
    return CertificationOutcome(cert, verdict, result, logs, tighten)
