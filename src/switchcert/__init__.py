"""Absorbing-set certification toolkit for switched polynomial systems.

Proves ultimate boundedness (existence of an absorbing set) and, for linear
subsystems, global asymptotic stability under arbitrary switching, by
constructing sum-of-squares Lyapunov certificates through semidefinite
programming.  Every certificate is cross-checked by independent numerical
verification and trajectory simulation.
"""

from .poly import (Polynomial, PolynomialVectorField, ParseError,
                   even_power_norm, gradient,
                   lie_derivative, parse_expression, poly_to_text)
from .sdp import (SdpProblem, SdpProblemBuilder, SdpSolution,
                  min_eigenvalue, read_sdpa, solve, write_sdpa)
from .sosprog import (GramBasis, SosIdentity, SosProgram, SosUnknown,
                      ScalarTerm, UnknownLieTerm, UnknownTerm, decode, encode,
                      gram_expand, monomial_basis)
from .certify import (AbsorbingSetCertificate, CertificationQuery,
                      CertificateRejectedError, EquilibriumError,
                      GammaInfeasibleError, InfeasibleAtCapError,
                      NumericalFailureError, StabilityVerdict, SwitchedSystem,
                      VerificationReport, classify, cqlf_bisection, escalate,
                      find_absorbing_lyapunov, find_common_lyapunov,
                      minimize_gamma, tighten_beta, verify_certificate)
from .sim import (AbsorptionReport, CertificateContradictionError,
                  SwitchingSignal, Trajectory, adversarial_switching,
                  check_absorption, integrate, integrate_batch,
                  random_switching)

__version__ = "0.1.0"
