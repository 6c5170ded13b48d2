"""Translation of sum-of-squares constraints into semidefinite programs.

A program is a list of identities.  Each identity states that a target
expression is a sum of squares; the expression is a linear combination of
known polynomials, unknown SOS polynomials (each parameterised by a Gram
matrix over a fixed monomial basis, entering either directly with a known
polynomial weight or through a Lie derivative along a known vector field)
and unknown scalars with known polynomial weights.

Encoding: every identity receives its own Gram matrix; matching the
coefficient of each monomial that can occur yields one trace equality per
monomial.  Unknown SOS polynomials are shared across identities.  Decoding
recovers each unknown polynomial as chi^T R chi from its solved Gram block.
Encoding is deterministic: monomials are processed in graded-lex order, so
identical programs produce identical SDP data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .poly import (Polynomial, PolynomialVectorField, grlex_key,
                   lie_derivative, mono_mul)
from .sdp import SdpProblem, SdpProblemBuilder, SdpSolution


class IllFormedIdentityError(ValueError):
    """A monomial of the target cannot be produced by any unknown."""


@dataclass(frozen=True)
class GramBasis:
    """Ordered monomial vector chi over which a Gram matrix is indexed."""

    dimension: int
    monomials: tuple

    def __post_init__(self):
        monos = tuple(tuple(m) for m in self.monomials)
        if len(set(monos)) != len(monos):
            raise ValueError("basis monomials must be distinct")
        object.__setattr__(self, "monomials", tuple(sorted(monos, key=grlex_key)))

    def __len__(self):
        return len(self.monomials)

    def pairs(self):
        """Upper-triangle index pairs with their product monomials."""
        monos = self.monomials
        for i in range(len(monos)):
            for j in range(i, len(monos)):
                yield i, j, mono_mul(monos[i], monos[j])


def monomial_basis(n: int, d_min: int, d_max: int) -> GramBasis:
    """All monomials in n variables with total degree in [d_min, d_max]."""
    if not 0 <= d_min <= d_max:
        raise ValueError("need 0 <= d_min <= d_max")
    monos = []

    def rec(prefix, remaining_vars, budget):
        if remaining_vars == 1:
            for e in range(budget + 1):
                monos.append(prefix + (e,))
            return
        for e in range(budget + 1):
            rec(prefix + (e,), remaining_vars - 1, budget - e)

    rec((), n, d_max)
    monos = [m for m in monos if d_min <= sum(m) <= d_max]
    return GramBasis(n, tuple(monos))


def basis_size(n: int, d: int) -> int:
    """binom(n + d, d), the full basis length up to degree d."""
    return math.comb(n + d, d)


def gram_expand(basis: GramBasis, R: np.ndarray) -> Polynomial:
    """chi^T R chi as an expanded polynomial."""
    R = np.asarray(R, dtype=float)
    if R.shape != (len(basis), len(basis)):
        raise ValueError("Gram matrix size does not match basis")
    if np.max(np.abs(R - R.T)) > 1e-10 * (1.0 + np.max(np.abs(R))):
        raise ValueError("Gram matrix must be symmetric")
    terms: dict = {}
    for i, j, mono in basis.pairs():
        weight = R[i, j] if i == j else 2.0 * R[i, j]
        terms[mono] = terms.get(mono, 0.0) + weight
    return Polynomial(basis.dimension, terms)


@dataclass(frozen=True)
class SosUnknown:
    """An unknown SOS polynomial parameterised by a Gram matrix."""

    name: str
    basis: GramBasis
    role: str = "multiplier"  # "lyapunov" | "multiplier"


@dataclass(frozen=True)
class UnknownTerm:
    """weight(x) * U(x) contribution of an unknown SOS polynomial."""

    unknown: str
    weight: Polynomial


@dataclass(frozen=True)
class UnknownLieTerm:
    """scale * grad(U) . field contribution of an unknown SOS polynomial."""

    unknown: str
    field: PolynomialVectorField
    scale: float = 1.0


@dataclass(frozen=True)
class ScalarTerm:
    """weight(x) * scalar contribution of an unknown scalar."""

    scalar: str
    weight: Polynomial


@dataclass(frozen=True)
class SosIdentity:
    """known(x) + sum(terms) must be a sum of squares."""

    name: str
    dimension: int
    known: Polynomial
    terms: tuple = ()


@dataclass(frozen=True)
class SosProgram:
    identities: tuple
    unknowns: tuple
    scalars: tuple = ()
    # linear objective over scalars, minimised; None means pure feasibility
    objective: Mapping[str, float] | None = None


@dataclass(frozen=True)
class SdpEncoding:
    problem: SdpProblem
    unknown_blocks: Mapping[str, int]
    identity_blocks: Mapping[str, int]
    identity_bases: Mapping[str, GramBasis]
    scalar_index: Mapping[str, int]
    unknown_bases: Mapping[str, GramBasis]

    @property
    def n_equalities(self) -> int:
        return self.problem.m

    @property
    def n_decision_variables(self) -> int:
        """Gram upper-triangle entries plus free scalars."""
        tri = sum(s * (s + 1) // 2 for s in self.problem.block_sizes)
        return tri + self.problem.n_free


def _entry_coefficient_polys(identity: SosIdentity, unknowns: Mapping[str, SosUnknown]):
    """Per Gram entry (i<=j) of each unknown, the known polynomial that
    multiplies R[i,j] in the identity (with the off-diagonal doubling kept
    implicit, matching the trace convention of the SDP layer)."""
    n = identity.dimension
    coeffs: dict = {}
    for term in identity.terms:
        if isinstance(term, ScalarTerm):
            continue
        unk = unknowns[term.unknown]
        basis = unk.basis
        for i, j, mono in basis.pairs():
            if isinstance(term, UnknownTerm):
                gij = term.weight * Polynomial.monomial(mono)
            else:
                gij = term.scale * lie_derivative(Polynomial.monomial(mono),
                                                  term.field)
            if gij.is_zero():
                continue
            key = (term.unknown, i, j)
            prev = coeffs.get(key)
            coeffs[key] = gij if prev is None else prev + gij
    return coeffs


def _identity_basis(identity: SosIdentity, support: Iterable, n: int) -> GramBasis:
    """Graded window basis from the achievable support of the identity."""
    degrees = [sum(m) for m in support]
    if not degrees:
        return monomial_basis(n, 0, 0)
    d_lo, d_hi = min(degrees), max(degrees)
    return monomial_basis(n, (d_lo + 1) // 2, d_hi // 2)


def encode(program: SosProgram) -> SdpEncoding:
    """Build the block-diagonal SDP for a program of SOS identities."""
    if not program.identities:
        raise ValueError("empty program")
    n = program.identities[0].dimension
    for ident in program.identities:
        if ident.dimension != n:
            raise ValueError("identities must share one dimension")

    unknowns = {u.name: u for u in program.unknowns}
    scalar_index = {name: k for k, name in enumerate(program.scalars)}

    unknown_blocks = {u.name: b for b, u in enumerate(program.unknowns)}
    block_sizes = [len(u.basis) for u in program.unknowns]
    identity_blocks = {}
    identity_bases = {}
    identity_tables = {}

    for ident in program.identities:
        for term in ident.terms:
            if isinstance(term, ScalarTerm):
                if term.scalar not in scalar_index:
                    raise ValueError(f"scalar {term.scalar!r} not declared")
            elif term.unknown not in unknowns:
                raise ValueError(f"unknown {term.unknown!r} not declared")

        coeffs = _entry_coefficient_polys(ident, unknowns)
        support = set(ident.known.terms)
        for gij in coeffs.values():
            support.update(gij.terms)
        for term in ident.terms:
            if isinstance(term, ScalarTerm):
                support.update(term.weight.terms)
        basis = _identity_basis(ident, support, n)
        for _, _, mono in basis.pairs():
            support.add(mono)

        identity_blocks[ident.name] = len(block_sizes)
        identity_bases[ident.name] = basis
        identity_tables[ident.name] = (coeffs, support)
        block_sizes.append(len(basis))

    builder = SdpProblemBuilder(block_sizes, n_free=len(program.scalars))
    if program.objective is not None:
        vec = np.zeros(len(program.scalars))
        for name, coef in program.objective.items():
            vec[scalar_index[name]] = coef
        builder.set_objective_free(vec)

    for ident in program.identities:
        coeffs, support = identity_tables[ident.name]
        basis = identity_bases[ident.name]
        id_block = identity_blocks[ident.name]
        known_scale = 1.0 + ident.known.max_abs_coefficient()

        # invert the per-entry tables into per-monomial rows
        rows: dict = {mono: ({}, {}) for mono in support}
        for (uname, i, j), gij in coeffs.items():
            block = unknown_blocks[uname]
            for mono, c in gij.terms.items():
                block_map, _ = rows[mono]
                block_map.setdefault(block, []).append((i, j, c))
        for term in ident.terms:
            if isinstance(term, ScalarTerm):
                k = scalar_index[term.scalar]
                for mono, c in term.weight.terms.items():
                    _, free_map = rows[mono]
                    free_map[k] = free_map.get(k, 0.0) + c
        for i, j, mono in basis.pairs():
            block_map, _ = rows[mono]
            block_map.setdefault(id_block, []).append((i, j, -1.0))

        for mono in sorted(support, key=grlex_key):
            block_map, free_map = rows[mono]
            rhs = -ident.known.coefficient(mono)
            if not block_map and not free_map:
                if abs(rhs) > 1e-12 * known_scale:
                    raise IllFormedIdentityError(
                        f"identity {ident.name!r}: monomial {mono} has known "
                        f"coefficient {-rhs} but no unknown can produce it")
                continue
            builder.add_constraint(
                rhs, {b: trips for b, trips in sorted(block_map.items())},
                free_map)

    return SdpEncoding(
        problem=builder.build(),
        unknown_blocks=unknown_blocks,
        identity_blocks=identity_blocks,
        identity_bases=identity_bases,
        scalar_index=scalar_index,
        unknown_bases={u.name: u.basis for u in program.unknowns},
    )


def coefficient_matching(identity: SosIdentity,
                         unknowns: Sequence[SosUnknown] = (),
                         scalars: Sequence[str] = ()) -> SdpEncoding:
    """Encode a single identity; exposed for inspection and tests."""
    program = SosProgram(identities=(identity,), unknowns=tuple(unknowns),
                         scalars=tuple(scalars))
    return encode(program)


@dataclass
class DecodedSos:
    polynomials: dict
    scalars: dict
    gram_matrices: dict      # unknown name -> matrix
    identity_grams: dict     # identity name -> matrix


def decode(encoding: SdpEncoding, solution: SdpSolution) -> DecodedSos:
    """Recover unknown polynomials and scalars from a solved SDP."""
    if not solution.feasible:
        raise ValueError(
            f"cannot decode a solution with status {solution.status!r}")
    polys = {}
    grams = {}
    for name, block in encoding.unknown_blocks.items():
        R = solution.blocks[block]
        grams[name] = R
        polys[name] = gram_expand(encoding.unknown_bases[name], R)
    identity_grams = {
        name: solution.blocks[block]
        for name, block in encoding.identity_blocks.items()}
    scalars = {
        name: float(solution.free[k])
        for name, k in encoding.scalar_index.items()}
    return DecodedSos(polys, scalars, grams, identity_grams)


def identity_residual(identity: SosIdentity, decoded: DecodedSos,
                      encoding: SdpEncoding) -> Polynomial:
    """Re-expand the identity with the decoded values minus its Gram form.

    This is an independent arithmetic path from the coefficient matching,
    so a small residual genuinely cross-checks the encoding.
    """
    expr = identity.known
    for term in identity.terms:
        if isinstance(term, ScalarTerm):
            expr = expr + term.weight * decoded.scalars[term.scalar]
        elif isinstance(term, UnknownTerm):
            expr = expr + term.weight * decoded.polynomials[term.unknown]
        else:
            expr = expr + term.scale * lie_derivative(
                decoded.polynomials[term.unknown], term.field)
    basis = encoding.identity_bases[identity.name]
    return expr - gram_expand(basis, decoded.identity_grams[identity.name])
