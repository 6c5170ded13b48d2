"""Translation of sum-of-squares constraints into semidefinite programs.

A program is a list of identities.  Each identity states that a target
expression is a sum of squares; the expression is a linear combination of
known polynomials, unknown SOS polynomials (each parameterised by a Gram
matrix over a fixed monomial basis, entering either directly with a known
polynomial weight or through a Lie derivative along a known vector field)
and unknown scalars with known polynomial weights.

Encoding: every identity receives its own Gram matrix; matching the
coefficient of each monomial that can occur yields one trace equality per
monomial.  Unknown SOS polynomials are shared across identities.  Each
identity's equalities come from one row table, built in one pass over its
terms: per monomial, the Gram entries of each block and the scalars that
multiply it, with the identity's own Gram entries at -1 (_identity_rows).
encode only filters that table (the row rule below) and emits what is
left.  Encoding is deterministic: rows are emitted in graded-lex order of
their monomials, so identical programs produce identical SDP data.

The row table is built on integer arrays, never on one Polynomial per
Gram product (Lofberg, IEEE TAC 2009, treats this compile step as work on
monomial tables):
- Grlex rows: a monomial e is the integer row (deg e, -e_1, ..., -e_n)
  (_grlex_rows).  Rows compare lexicographically as their monomials
  compare in graded-lex order, and the row of chi^P * m is row(P) +
  row(m), for any dimension and degree.  One lexicographic sort
  (_ranks) numbers the distinct monomials of a table in that order.
- Pair table: each Gram basis holds, once, its upper-triangle pairs
  (i, j) and their distinct products chi_i chi_j (GramBasis.pair_table).
- Term tables: a term broadcasts its unknown's products against the
  monomials of its weight, or against the shifts m - e_k of its field's
  components, into one (monomial, product, coefficient) table.
- Drop rule: the coefficients keep the float operations of expanding
  each product as a Polynomial.  A weight's coefficient is taken as it
  is; a Lie coefficient adds P_k c for k in order from 0.0, drops a value
  below poly.ZERO_THRESHOLD after each add, then multiplies by the term's
  scale and drops again, as poly.lie_derivative does.  The terms' sums
  per (monomial, product) add in term order from 0.0, and exact zeros
  leave the table; each sum then goes to every pair of its product.
So encode returns the SdpProblem that the product-by-product expansion
returned, byte for byte.

The Gram table: SdpEncoding.blocks maps each unknown and identity name
to its SDP block, and SdpEncoding.bases holds each block's Gram basis.
decode reads that table alone, and returns each block's Gram matrix by
name and each unknown's polynomial chi^T R chi.

Sign symmetry.  A sign change x -> s*x (s in {-1, 1}^n) that fixes every
known polynomial and weight of a program, and maps component k of each
Lie term's field to s_k times itself, maps solutions to solutions, so
their average over all such changes is a solution whose V, p_i, q and
identities are invariant: restricting to invariant polynomials loses no
certificate (Gatermann & Parrilo, J. Pure Appl. Algebra 2004; Lofberg,
IEEE TAC 2009).  invariant_parities finds, from the program's data alone,
the monomials every such change fixes: those whose exponent parities lie
in the GF(2) span of the data's parities.  A table of monomials is tested
against the span in one product with its parity checks (_parity_checks),
for any dimension.
- Row rule: a filter over the row table.  encode poses one equality per
  monomial of the table (SdpEncoding.n_equalities counts them) but emits
  the rows of invariant monomials only.  Every other row holds only Gram
  entries (i, j) whose product chi_i chi_j is not invariant, with no
  known coefficient and no scalar, so it reads 0 = 0 on invariant Gram
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

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .poly import ZERO_THRESHOLD, Polynomial, PolynomialVectorField, grlex_key
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

    @functools.cached_property
    def pair_table(self) -> "_PairTable":
        """The pair table: the upper-triangle pairs and their products."""
        return _PairTable(self)


class _PairTable:
    """The upper-triangle pairs (i, j) of a Gram basis, row by row, and the
    distinct products chi_i chi_j, numbered in order of first appearance.

    i, j, product: per pair, its indices and its product's number;
    rows, exponents: per product, its grlex row (n_products, n + 1) and
    its exponents (n_products, n); grouped_i, grouped_j, start: the pairs
    grouped by product, in pair order within one, product p's being those
    from start[p] to start[p + 1]."""

    def __init__(self, basis: GramBasis):
        rows = _grlex_rows(basis.monomials, basis.dimension)
        self.i, self.j = np.triu_indices(len(basis))
        products = rows[self.i] + rows[self.j]
        rank, first = _ranks(products)
        # renumber the products in order of first appearance
        order = np.argsort(first)
        renumber = np.empty(len(first), dtype=np.intp)
        renumber[order] = np.arange(len(first))
        self.product = renumber[rank]
        self.rows = products[first[order]]
        self.exponents = -self.rows[:, 1:]
        grouped = np.argsort(self.product, kind="stable")
        self.grouped_i, self.grouped_j = self.i[grouped], self.j[grouped]
        self.start = np.zeros(len(first) + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.product), out=self.start[1:])


def _grlex_rows(monos, n: int) -> np.ndarray:
    """The grlex rows (deg e, -e_1, ..., -e_n) of a list of monomials e,
    one per row (int64, (T, n + 1)): rows in lexicographic order are
    monomials in graded-lex order (grlex_key), and the row of a product of
    monomials is the sum of their rows."""
    return np.fromiter(itertools.chain.from_iterable(monos), dtype=np.int64,
                       count=n * len(monos)).reshape(-1, n) @ _grlex_map(n)


@functools.lru_cache(maxsize=64)
def _grlex_map(n: int) -> np.ndarray:
    """The matrix (n, n + 1) that takes exponents to grlex rows; read-only,
    as every caller shares it."""
    grlex = np.hstack([np.ones((n, 1), dtype=np.int64),
                       -np.eye(n, dtype=np.int64)])
    grlex.flags.writeable = False
    return grlex


def _ranks(rows: np.ndarray) -> tuple:
    """The rank of each row of rows (T, c) among its distinct rows in
    lexicographic order, and the index of each distinct row's first
    occurrence, by one stable lexicographic sort.  With no columns, every
    row is the same."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    rows = rows[order]
    new = np.empty(len(rows), dtype=bool)
    new[:1] = True
    np.logical_or.reduce(rows[1:] != rows[:-1], axis=1, out=new[1:])
    rank = np.empty(len(rows), dtype=np.intp)
    rank[order] = new.cumsum()
    rank -= 1
    return rank, order[new]


def monomial_basis(n: int, d_min: int, d_max: int) -> GramBasis:
    """All monomials in n variables with total degree in [d_min, d_max]."""
    if not 0 <= d_min <= d_max:
        raise ValueError("need 0 <= d_min <= d_max")
    monos = [()]
    for _ in range(n):
        monos = [m + (e,) for m in monos for e in range(d_max - sum(m) + 1)]
    return GramBasis(n, tuple(m for m in monos if sum(m) >= d_min))


@functools.lru_cache(maxsize=64)
def gram_basis(n: int, d_lo: int, d_hi: int) -> GramBasis:
    """Gram basis of a polynomial whose terms have degrees in [d_lo, d_hi]:
    the monomials of degree ceil(d_lo/2) .. floor(d_hi/2).  Equal degrees
    return the same (immutable) basis, so its pair table is built once."""
    return monomial_basis(n, (d_lo + 1) // 2, d_hi // 2)


def gram_expand(basis: GramBasis, R: np.ndarray) -> Polynomial:
    """chi^T R chi as an expanded polynomial."""
    R = np.asarray(R, dtype=float)
    if R.shape != (len(basis), len(basis)):
        raise ValueError("Gram matrix size does not match basis")
    if np.max(np.abs(R - R.T)) > 1e-10 * (1.0 + np.max(np.abs(R))):
        raise ValueError("Gram matrix must be symmetric")
    # each product's weights summed in pair order from 0.0, by bincount,
    # and listed in order of first appearance
    table = basis.pair_table
    upper = R[table.i, table.j]
    sums = np.bincount(table.product, minlength=len(table.exponents),
                       weights=np.where(table.i == table.j, upper, 2.0 * upper))
    return Polynomial(basis.dimension,
                      dict(zip(map(tuple, table.exponents.tolist()),
                               sums.tolist())))


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
    """The SDP of a program and its Gram table: blocks maps every unknown
    and identity name to its block, the n_unknowns unknowns' blocks first,
    and bases[b] is the Gram basis of block b (len(bases[b]) ==
    problem.block_sizes[b]).  problem holds only the rows of invariant
    monomials; n_equalities counts every row the program poses,
    n_decision_variables every Gram entry and scalar."""

    problem: SdpProblem
    blocks: Mapping[str, int]
    bases: tuple
    n_unknowns: int
    scalar_index: Mapping[str, int]
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


@functools.lru_cache(maxsize=256)
def parity_classes(basis: GramBasis, span: tuple) -> np.ndarray:
    """A label for the class of each basis monomial modulo the span of
    invariant_parities: chi_i chi_j is invariant exactly when chi_i and
    chi_j share a label.  decode asks for the same few (basis, span) pairs
    on every solve, so the labels are kept, read-only."""
    exps = np.array(basis.monomials, dtype=np.int64).reshape(
        len(basis), basis.dimension)
    labels = _ranks(exps @ _parity_checks(span, basis.dimension) & 1)[0]
    labels.flags.writeable = False
    return labels


@functools.lru_cache(maxsize=64)
def _parity_checks(span: tuple, n: int) -> np.ndarray:
    """The parity checks of a span of invariant_parities: a 0/1 matrix
    (n, n - len(span)) whose columns span the vectors orthogonal, over
    GF(2), to every vector of the span.  So exps @ checks & 1 is 0 exactly
    for the monomials whose parities lie in the span, and two monomials
    have equal rows exactly when their parities differ by a vector of the
    span, that is, when _reduce(_parity(.), span) is equal.

    With the span in reduced echelon form, each leading bit set in its own
    vector only, the check of a free bit f is f plus the leading bit of
    every vector that holds f.  Read-only, as every caller shares it."""
    rows = list(span)
    for a in range(len(rows)):
        v, lead = rows[a], span[a].bit_length() - 1
        rows = [w ^ v if b != a and w >> lead & 1 else w
                for b, w in enumerate(rows)]
    leads = [v.bit_length() - 1 for v in span]
    free = [f for f in range(n) if f not in leads]
    checks = np.zeros((n, len(free)), dtype=np.int64)
    for c, f in enumerate(free):
        checks[f, c] = 1
        for lead, v in zip(leads, rows):
            checks[lead, c] = v >> f & 1
    checks.flags.writeable = False
    return checks


def _terms(polys, n: int) -> tuple:
    """The monomials of several polynomials, one after another, as grlex
    rows (T, n + 1) and coefficients (T,)."""
    return (_grlex_rows([m for p in polys for m in p.terms], n),
            np.fromiter([c for p in polys for c in p.terms.values()],
                        dtype=float))


def _lie_shifts(field: PolynomialVectorField, n: int) -> tuple:
    """grad(chi^P) . field = sum over the shifts s of chi^(P + s) times
    sum_k P_k C[s, k]: the distinct shifts m - e_k of the monomials m of
    each component k, in order of first appearance, as grlex rows
    (S, n + 1), and C (S, n), the coefficient of m in component k."""
    shifts: dict = {}
    places = []
    for k, comp in enumerate(field.components):
        for mono, c in comp.terms.items():
            s = list(mono)
            s[k] -= 1
            places.append((shifts.setdefault(tuple(s), len(shifts)), k, c))
    C = np.zeros((len(shifts), n))
    for s, k, c in places:
        C[s, k] = c
    return _grlex_rows(list(shifts), n), C


def _lie_coefficients(products: np.ndarray, C: np.ndarray,
                      scale: float) -> np.ndarray:
    """The coefficient (P, S) of chi^(P + s) in scale * grad(chi^P) . field,
    with the float operations of poly.lie_derivative: for k in order, the
    running sum plus P_k C[s, k], each value below ZERO_THRESHOLD dropped
    after the add; then times scale and dropped again.  A product P_k C[s, k]
    is never below the threshold, since P_k >= 1 and |C| >= it; where
    P_k = 0 it is 0.0 and leaves the sum as it is.  So a shift with
    exponent -1 at k, which only component k gives, has coefficient 0.0
    wherever P_k = 0, and P + s stays a monomial wherever it is not."""
    acc = np.zeros((len(products), len(C)))
    for k in range(products.shape[1]):
        acc += products[:, k, None] * C[:, k]
        acc[np.abs(acc) < ZERO_THRESHOLD] = 0.0
    acc *= scale
    acc[np.abs(acc) < ZERO_THRESHOLD] = 0.0
    if not np.isfinite(acc).all():
        raise ValueError("a Lie derivative coefficient is not finite")
    return acc


class _Unknowns:
    """The unknowns' pair tables laid end to end: the products of block b
    are numbered from first[b], and i, j, block and start group every
    pair of every unknown by that number, as _PairTable does for one
    (built on first use: a program whose identities hold no Gram product
    never reads them)."""

    def __init__(self, program: SosProgram):
        self.tables = [u.basis.pair_table for u in program.unknowns]
        self.first = [0, *itertools.accumulate(len(t.rows)
                                               for t in self.tables)]

    @functools.cached_property
    def i(self) -> np.ndarray:
        return np.concatenate([t.grouped_i for t in self.tables])

    @functools.cached_property
    def j(self) -> np.ndarray:
        return np.concatenate([t.grouped_j for t in self.tables])

    @functools.cached_property
    def block(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.tables)),
                         [len(t.i) for t in self.tables])

    @functools.cached_property
    def start(self) -> np.ndarray:
        base = [0, *itertools.accumulate(len(t.i) for t in self.tables)]
        return np.concatenate(
            [t.start[:-1] + b for t, b in zip(self.tables, base)]
            + [np.array(base[-1:], dtype=np.intp)])


class _RowTable(NamedTuple):
    """One identity's rows (_identity_rows).  Monomials are referred to by
    their rank in monos."""

    monos: np.ndarray       # the distinct monomials met, grlex rows, ascending
    is_row: np.ndarray      # which of them are rows (bool)
    basis: GramBasis        # the identity's own Gram basis
    known: tuple            # (rank, coefficient) of each known monomial
    data: np.ndarray        # the ranks of the scalars' and known monomials
    cells: tuple            # (rank, product, sum) of each sum
    own: np.ndarray         # the rank of each pair of basis
    free: tuple             # (rank, scalar index, coefficient), term order


def _identity_rows(identity: SosIdentity, unknowns: Mapping[str, int],
                   scalar_index: Mapping[str, int],
                   table: _Unknowns) -> _RowTable:
    """The row table of one identity, on grlex rows (_grlex_rows).

    Each term becomes one table of (monomial, Gram product, coefficient)
    by broadcasting the products of its unknown's basis against the
    monomials of its weight (UnknownTerm: the coefficient is the weight's,
    as 0.0 + c * 1.0 is), or against the shifts m - e_k of its field's
    components (UnknownLieTerm: _lie_coefficients); a coefficient of 0.0
    is left out.  The coefficients of one (monomial, product) are summed
    over the terms in term order from 0.0 (bincount adds in its input
    order), and sums of exactly 0.0 are left out.  A row is a monomial
    left with a sum, or that a scalar term's weight holds; the identity's
    Gram basis spans the degrees of those and of its known polynomial,
    and each of that basis's products is a row too, with R[i, j] of the
    identity's own block at -1.  One lexicographic sort of all these
    monomials, the known ones included, ranks them in graded-lex order.

    Products are numbered as in table."""
    n = identity.dimension
    rows, products, coefs, scalars = [], [], [], []
    for term in identity.terms:
        if isinstance(term, ScalarTerm):
            if term.scalar not in scalar_index:
                raise ValueError(f"scalar {term.scalar!r} not declared")
            scalars.append(term)
            continue
        if term.unknown not in unknowns:
            raise ValueError(f"unknown {term.unknown!r} not declared")
        b = unknowns[term.unknown]
        pairs = table.tables[b]
        if isinstance(term, UnknownTerm):
            monos, c = _terms([term.weight], n)
            cells = np.broadcast_to(c, (len(pairs.rows), len(c)))
        else:
            monos, C = _lie_shifts(term.field, n)
            cells = _lie_coefficients(pairs.exponents, C, term.scale)
        rows.append((pairs.rows[:, None] + monos).reshape(-1, n + 1))
        products.append(np.arange(table.first[b], table.first[b + 1])
                        .repeat(len(monos)))
        coefs.append(cells.ravel())
    if rows:
        rows, products, coefs = (np.concatenate(a)
                                 for a in (rows, products, coefs))
        live = coefs != 0.0
        rows, products = rows[live], products[live]
        rank, first = _ranks(np.column_stack((rows, products)))
        sums = np.bincount(rank, weights=coefs[live])
        live = sums != 0.0
        cells = rows[first[live]], products[first[live]], sums[live]
    else:
        cells = (np.zeros((0, n + 1), dtype=np.int64),
                 np.zeros(0, dtype=np.intp), np.zeros(0))

    weights = [t.weight for t in scalars]
    monos, coefs = _terms([*weights, identity.known], n)
    sidx = np.array([scalar_index[t.scalar] for t in scalars
                     for _ in t.weight.terms], dtype=np.intp)
    degrees = np.concatenate([cells[0][:, 0], monos[:, 0]])
    basis = gram_basis(n, int(np.minimum.reduce(degrees)),
                       int(np.maximum.reduce(degrees))) \
        if len(degrees) else gram_basis(n, 0, 0)
    own = basis.pair_table
    # every monomial met: the sums', the own products', the scalars' and
    # the known's, in that order
    met = np.concatenate([cells[0], own.rows, monos])
    rank, first = _ranks(met)
    c, o, s = itertools.accumulate((len(cells[0]), len(own.rows), len(sidx)))
    is_row = np.zeros(len(first), dtype=bool)
    is_row[rank[:s]] = True
    return _RowTable(
        met[first], is_row, basis, (rank[s:], coefs[s - o:]), rank[o:],
        (rank[:c], *cells[1:]), rank[c:o][own.product],
        (rank[o:s], sidx, coefs[:s - o]))


def _index(names, kind: str) -> dict:
    """Each name's position in names; a name given twice is a ValueError."""
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ValueError(f"{kind} {name!r} is declared twice")
    return {name: k for k, name in enumerate(names)}


def encode(program: SosProgram) -> SdpEncoding:
    """Build the block-diagonal SDP for a program of SOS identities, with
    the rows of invariant monomials only (see the module docstring).

    Each identity's row table comes from _identity_rows; the rows of
    invariant monomials go to SdpProblemBuilder.add_rows as arrays, in
    identity order and graded-lex order within one, and its row rule
    sorts each row's entries.  The right-hand side of a row is
    -known.coefficient of its monomial, so -0.0 where the known
    polynomial lacks it."""
    if not program.identities:
        raise ValueError("empty program")
    n = program.identities[0].dimension
    for ident in program.identities:
        if ident.dimension != n:
            raise ValueError("identities must share one dimension")
        dims = [ident.known.dimension] + [
            t.weight.dimension if not isinstance(t, UnknownLieTerm)
            else t.field.dimension for t in ident.terms]
        if any(d != n for d in dims):
            raise ValueError(f"identity {ident.name!r}: dimension mismatch")
    if any(u.basis.dimension != n for u in program.unknowns):
        raise ValueError("unknown bases must share the identities' dimension")

    blocks = _index([u.name for u in program.unknowns]
                    + [ident.name for ident in program.identities],
                    "unknown or identity")
    scalar_index = _index(program.scalars, "scalar")
    unknowns = {u.name: b for b, u in enumerate(program.unknowns)}
    first = len(program.unknowns)
    table = _Unknowns(program)
    tables = [_identity_rows(ident, unknowns, scalar_index, table)
              for ident in program.identities]
    bases = tuple(u.basis for u in program.unknowns) \
        + tuple(t.basis for t in tables)
    builder = SdpProblemBuilder([len(basis) for basis in bases],
                                n_free=len(program.scalars))
    if program.objective is not None:
        vec = np.zeros(len(program.scalars))
        for name, coef in program.objective.items():
            vec[scalar_index[name]] = coef
        builder.set_objective_free(vec)

    span = invariant_parities(program)
    rhs, entries, free, offset = [], [], [], 0
    for k, (ident, t) in enumerate(zip(program.identities, tables)):
        # the row rule: a row of a monomial outside the span reads 0 = 0
        # once the Gram matrices are invariant, so it is posed but not
        # emitted.  Known and scalar terms lie in the span by construction
        # of span, so one outside it is an internal error.  (A grlex row
        # holds -e, which has the parities of e.)
        invariant = ~np.logical_or.reduce(
            t.monos[:, 1:] @ _parity_checks(span, n) & 1, axis=1)
        if np.count_nonzero(invariant[t.data]) < len(t.data):
            raise RuntimeError(
                f"identity {ident.name!r}: a known or scalar term lies "
                "outside the invariant parities")
        known, kcoefs = t.known
        if np.count_nonzero(t.is_row[known]) < len(known):
            missing = ~t.is_row[known] & (np.abs(kcoefs) > 1e-12 * (
                1.0 + ident.known.max_abs_coefficient()))
            if missing.any():
                worst = np.flatnonzero(missing)[known[missing].argmin()]
                raise IllFormedIdentityError(
                    f"identity {ident.name!r}: monomial "
                    f"{tuple((-t.monos[known[worst], 1:]).tolist())} has "
                    f"known coefficient {float(kcoefs[worst])} but no "
                    "unknown can produce it")
        kept = t.is_row & invariant
        index = kept.cumsum() + (offset - 1)
        offset = int(index[-1]) + 1
        row_rhs = np.zeros(len(kept))
        row_rhs[known] = kcoefs
        rhs.append(-row_rhs[kept])

        # each kept sum at every pair of its product, then the identity's
        # own pairs
        rows, products, sums = t.cells
        if len(rows):
            live = kept[rows]
            rows, products, sums = rows[live], products[live], sums[live]
            start = table.start[products]
            count = table.start[products + 1] - start
            cell = np.arange(len(rows)).repeat(count)
            pair = np.arange(len(cell)) + (
                start - count.cumsum() + count).repeat(count)
            entries.append((index[rows[cell]], table.block[pair],
                            table.i[pair], table.j[pair], sums[cell]))
        own = t.basis.pair_table
        at = kept[t.own].nonzero()[0]
        entries.append((index[t.own[at]], np.full(len(at), first + k),
                        own.i[at], own.j[at], np.full(len(at), -1.0)))
        r, idx, v = t.free
        live = kept[r]
        free.append((index[r[live]], idx[live], v[live]))

    builder.add_rows(np.concatenate(rhs),
                     [np.concatenate(a) for a in zip(*entries)],
                     [np.concatenate(a) for a in zip(*free)])
    return SdpEncoding(
        problem=builder.build(), blocks=blocks, bases=bases,
        n_unknowns=first, scalar_index=scalar_index,
        n_equalities=sum(int(np.count_nonzero(t.is_row)) for t in tables),
        parity_span=span)


@dataclass
class DecodedSos:
    polynomials: dict       # unknown name -> chi^T R chi
    scalars: dict
    grams: dict             # unknown or identity name -> Gram matrix


def decode(encoding: SdpEncoding, solution: SdpSolution) -> DecodedSos:
    """Recover, from a solved SDP, the Gram matrix of every named block,
    averaged over the program's sign symmetries, the polynomial of every
    unknown, and the scalars."""
    if not solution.feasible:
        raise ValueError(
            f"cannot decode a solution with status {solution.status!r}")
    grams, polys = {}, {}
    for name, block in encoding.blocks.items():
        # every entry whose product chi_i chi_j is not invariant set to 0:
        # the block's average over the sign symmetries
        basis, R = encoding.bases[block], solution.blocks[block]
        classes = parity_classes(basis, encoding.parity_span)
        cross = classes[:, None] != classes[None, :]
        grams[name] = np.where(cross, 0.0, R) if cross.any() else R
        if block < encoding.n_unknowns:
            polys[name] = gram_expand(basis, grams[name])
    scalars = {
        name: float(solution.free[k])
        for name, k in encoding.scalar_index.items()}
    return DecodedSos(polys, scalars, grams)
