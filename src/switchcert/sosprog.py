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

Sign symmetry.  A sign change x -> s*x (s in {-1, 1}^n) that fixes every
known polynomial and weight of a program, and maps component k of each
Lie term's field to s_k times itself, maps solutions to solutions, so
their average over all such changes is a solution whose V, p_i, q and
identities are invariant: restricting to invariant polynomials loses no
certificate (Gatermann & Parrilo, J. Pure Appl. Algebra 2004; Lofberg,
IEEE TAC 2009).  invariant_parities finds, from the program's data alone,
the monomials every such change fixes: those whose exponent parities lie
in the GF(2) span of the data's parities.
- Row rule: encode poses one equality per monomial of each identity's
  support (SdpEncoding.n_equalities counts them) but emits the rows of
  invariant monomials only.  Every other row holds only Gram entries
  (i, j) whose product chi_i chi_j is not invariant, with no known
  coefficient and no scalar, so it reads 0 = 0 on invariant Gram
  matrices.  A program without such a change, such as one whose fields
  have a constant term in every component, keeps every row.
- Decode average: decode sets those entries to 0.  That is the group
  average of each solved block, so it keeps every block PSD and makes
  every row left out hold exactly.  On the bundled programs the solver
  returns them as exactly 0.0, so there decode changes no bit.

gram_basis is the one rule that turns degrees into a Gram basis: the
program builders size each unknown with it, encode sizes each identity's
Gram matrix from the degrees of the identity's achievable support, and the
membership checks of certify.verify_certificate size theirs from the
degrees of the polynomial checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

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


def gram_basis(n: int, d_lo: int, d_hi: int) -> GramBasis:
    """Gram basis of a polynomial whose terms have degrees in [d_lo, d_hi]:
    the monomials of degree ceil(d_lo/2) .. floor(d_hi/2)."""
    return monomial_basis(n, (d_lo + 1) // 2, d_hi // 2)


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
    """The SDP of a program and where its unknowns sit in it.  problem holds
    only the rows of invariant monomials; n_equalities counts every row the
    program poses, n_decision_variables every Gram entry and scalar."""

    problem: SdpProblem
    unknown_blocks: Mapping[str, int]
    identity_blocks: Mapping[str, int]
    identity_bases: Mapping[str, GramBasis]
    scalar_index: Mapping[str, int]
    unknown_bases: Mapping[str, GramBasis]
    n_equalities: int
    parity_span: tuple          # from invariant_parities

    @property
    def n_decision_variables(self) -> int:
        """Gram upper-triangle entries plus free scalars."""
        tri = sum(s * (s + 1) // 2 for s in self.problem.block_sizes)
        return tri + self.problem.n_free


def _parity(mono) -> int:
    """The exponent parities of a monomial as a bitmask, bit k for x_{k+1}."""
    mask = 0
    for k, e in enumerate(mono):
        if e & 1:
            mask |= 1 << k
    return mask


def _reduce(mask: int, span: tuple) -> int:
    """The representative of a parity mask modulo a GF(2) span given as a
    basis with distinct leading bits, in decreasing order: equal for two
    masks exactly when their sum lies in the span, and 0 for its members."""
    for v in span:
        mask = min(mask, mask ^ v)
    return mask


def invariant_parities(program: SosProgram) -> tuple:
    """GF(2) basis, with distinct leading bits in decreasing order, of the
    parities of the monomials that every sign symmetry of the program fixes.

    A sign change x -> s*x (s in {-1, 1}^n) is a symmetry when it fixes
    every known polynomial and weight and, for each Lie term, maps
    component k of the field to s_k times itself.  The monomials it fixes
    for every such s are those whose parity lies in the span of the data's
    parities: each monomial of a known polynomial or weight, and each
    monomial of field component k with bit k flipped."""
    masks = set()
    for ident in program.identities:
        masks.update(map(_parity, ident.known.terms))
        for term in ident.terms:
            if isinstance(term, UnknownLieTerm):
                for k, comp in enumerate(term.field.components):
                    masks.update(_parity(m) ^ (1 << k) for m in comp.terms)
            else:
                masks.update(map(_parity, term.weight.terms))
    span: list = []
    for mask in sorted(masks):
        mask = _reduce(mask, span)
        if mask:
            span.append(mask)
            span.sort(reverse=True)
    return tuple(span)


def parity_classes(basis: GramBasis, span: tuple) -> np.ndarray:
    """The class of each basis monomial modulo the span of
    invariant_parities: chi_i chi_j is invariant exactly when chi_i and
    chi_j share a class."""
    return np.array([_reduce(_parity(m), span) for m in basis.monomials])


def _entry_coefficient_polys(identity: SosIdentity, unknowns: Mapping[str, SosUnknown]):
    """Per Gram entry (i<=j) of each unknown, the known polynomial that
    multiplies R[i,j] in the identity (with the off-diagonal doubling kept
    implicit, matching the trace convention of the SDP layer).  Within a
    term the polynomial depends only on the product monomial
    chi_i chi_j, so each product is expanded once."""
    coeffs: dict = {}
    for term in identity.terms:
        if isinstance(term, ScalarTerm):
            continue
        by_product: dict = {}
        for i, j, mono in unknowns[term.unknown].basis.pairs():
            gij = by_product.get(mono)
            if gij is None:
                if isinstance(term, UnknownTerm):
                    gij = term.weight * Polynomial.monomial(mono)
                else:
                    gij = term.scale * lie_derivative(
                        Polynomial.monomial(mono), term.field)
                by_product[mono] = gij
            if gij.is_zero():
                continue
            key = (term.unknown, i, j)
            prev = coeffs.get(key)
            coeffs[key] = gij if prev is None else prev + gij
    return coeffs


def encode(program: SosProgram) -> SdpEncoding:
    """Build the block-diagonal SDP for a program of SOS identities, with
    the rows of invariant monomials only (see the module docstring)."""
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
        degrees = [sum(m) for m in support] or [0]
        basis = gram_basis(n, min(degrees), max(degrees))
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

    span = invariant_parities(program)
    n_equalities = 0
    for ident in program.identities:
        coeffs, support = identity_tables[ident.name]
        basis = identity_bases[ident.name]
        id_block = identity_blocks[ident.name]
        known_scale = 1.0 + ident.known.max_abs_coefficient()

        # a row of a monomial outside the span reads 0 = 0 once the Gram
        # matrices are invariant: it is posed but not emitted.  Known and
        # scalar terms lie in the span by construction of span.
        kept = {mono for mono in support if _reduce(_parity(mono), span) == 0}
        n_equalities += len(support) - len(kept)
        data = set(ident.known.terms).union(*(
            term.weight.terms for term in ident.terms
            if isinstance(term, ScalarTerm)))
        if not kept.issuperset(data):
            raise RuntimeError(
                f"identity {ident.name!r}: a known or scalar term lies "
                "outside the invariant parities")

        # invert the per-entry tables into per-monomial rows
        rows: dict = {mono: ({}, {}) for mono in kept}
        for (uname, i, j), gij in coeffs.items():
            block = unknown_blocks[uname]
            for mono, c in gij.terms.items():
                row = rows.get(mono)
                if row is not None:
                    row[0].setdefault(block, []).append((i, j, c))
        for term in ident.terms:
            if isinstance(term, ScalarTerm):
                k = scalar_index[term.scalar]
                for mono, c in term.weight.terms.items():
                    _, free_map = rows[mono]
                    free_map[k] = free_map.get(k, 0.0) + c
        for i, j, mono in basis.pairs():
            row = rows.get(mono)
            if row is not None:
                row[0].setdefault(id_block, []).append((i, j, -1.0))

        for mono in sorted(kept, key=grlex_key):
            block_map, free_map = rows[mono]
            rhs = -ident.known.coefficient(mono)
            if not block_map and not free_map:
                if abs(rhs) > 1e-12 * known_scale:
                    raise IllFormedIdentityError(
                        f"identity {ident.name!r}: monomial {mono} has known "
                        f"coefficient {-rhs} but no unknown can produce it")
                continue
            n_equalities += 1
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
        n_equalities=n_equalities,
        parity_span=span,
    )


@dataclass
class DecodedSos:
    polynomials: dict
    scalars: dict
    identity_grams: dict     # identity name -> matrix


def decode(encoding: SdpEncoding, solution: SdpSolution) -> DecodedSos:
    """Recover unknown polynomials and scalars from a solved SDP, each Gram
    block averaged over the program's sign symmetries."""
    if not solution.feasible:
        raise ValueError(
            f"cannot decode a solution with status {solution.status!r}")

    def invariant_part(basis, block):
        """The block with every entry whose product chi_i chi_j is not
        invariant set to 0: its average over the sign symmetries."""
        R = solution.blocks[block]
        classes = parity_classes(basis, encoding.parity_span)
        cross = classes[:, None] != classes[None, :]
        return np.where(cross, 0.0, R) if cross.any() else R

    polys = {
        name: gram_expand(encoding.unknown_bases[name],
                          invariant_part(encoding.unknown_bases[name], block))
        for name, block in encoding.unknown_blocks.items()}
    identity_grams = {
        name: invariant_part(encoding.identity_bases[name], block)
        for name, block in encoding.identity_blocks.items()}
    scalars = {
        name: float(solution.free[k])
        for name, k in encoding.scalar_index.items()}
    return DecodedSos(polys, scalars, identity_grams)

