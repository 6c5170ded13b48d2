"""Sparse multivariate polynomial algebra over float coefficients.

A polynomial in n variables maps exponent tuples (one non-negative integer
per variable) to finite real coefficients (a NaN or infinite coefficient
raises ValueError); the zero polynomial is the empty map.
Values are immutable after construction and safe to share across threads;
every operation returns a new object.

Text form uses variables x1..xn with operators + - * ^ and parentheses,
e.g. ``0.2868*x1 - x2^2*x1``.  Printing emits terms in descending
graded-lex order with 17 significant digits, so print -> parse round-trips
exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# Coefficients with magnitude below this are dropped after arithmetic; keeps
# term maps sparse without perturbing any downstream certificate check.
ZERO_THRESHOLD = 1e-14

# A monomial is a tuple of non-negative integer exponents, one per variable.
Monomial = tuple


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def grlex_key(mono: Monomial):
    """Ascending graded-lex sort key (degree first, then x1-major)."""
    return (sum(mono), tuple(-e for e in mono))


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Polynomial:
    """Immutable sparse polynomial: dict from exponent tuple to coefficient."""

    __slots__ = ("dimension", "terms", "_arrays")

    def __init__(self, dimension: int, terms: Mapping[Monomial, float] | None = None):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        clean = {}
        if terms:
            for mono, coef in terms.items():
                mono = tuple(int(e) for e in mono)
                if len(mono) != dimension:
                    raise ValueError(f"monomial {mono} has wrong length for n={dimension}")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in monomial {mono}")
                c = float(coef)
                if not math.isfinite(c):
                    raise ValueError(f"coefficient {c} of monomial {mono} "
                                     "is not finite")
                if abs(c) >= ZERO_THRESHOLD:
                    clean[mono] = c
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_arrays", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        return cls(dimension)

    @classmethod
    def constant(cls, dimension: int, value: float) -> "Polynomial":
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def variable(cls, dimension: int, index: int) -> "Polynomial":
        """x_index with 1-based index."""
        if not 1 <= index <= dimension:
            raise ValueError(f"variable index {index} out of range 1..{dimension}")
        exp = [0] * dimension
        exp[index - 1] = 1
        return cls(dimension, {tuple(exp): 1.0})

    @classmethod
    def monomial(cls, mono: Monomial, coef: float = 1.0) -> "Polynomial":
        return cls(len(mono), {tuple(mono): coef})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial by convention."""
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {sum(m) for m in self.terms}
        return len(degs) == 1

    def coefficient(self, mono: Monomial) -> float:
        return self.terms.get(tuple(mono), 0.0)

    def max_abs_coefficient(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(c) for c in self.terms.values())

    def constant_term(self) -> float:
        return self.terms.get((0,) * self.dimension, 0.0)

    # -- arithmetic ----------------------------------------------------------

    def _check_dim(self, other: "Polynomial"):
        if self.dimension != other.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.dimension, other)
        self._check_dim(other)
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            out[mono] = out.get(mono, 0.0) + coef
        return Polynomial(self.dimension, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.dimension, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial(self.dimension, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(
                self.dimension, {m: c * other for m, c in self.terms.items()})
        self._check_dim(other)
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = mono_mul(ma, mb)
                out[mono] = out.get(mono, 0.0) + ca * cb
        return Polynomial(self.dimension, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.dimension, 1.0)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dimension == other.dimension and self.terms == other.terms

    def __hash__(self):
        return hash((self.dimension, frozenset(self.terms.items())))

    def diff(self, index: int) -> "Polynomial":
        """Partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.dimension:
            raise ValueError(f"variable index {index} out of range")
        k = index - 1
        out = {}
        for mono, coef in self.terms.items():
            e = mono[k]
            if e > 0:
                new = list(mono)
                new[k] = e - 1
                out[tuple(new)] = out.get(tuple(new), 0.0) + coef * e
        return Polynomial(self.dimension, out)

    # -- evaluation ----------------------------------------------------------

    def _get_arrays(self):
        cached = self._arrays
        if cached is None:
            monos = sorted(self.terms, key=grlex_key)
            exps = np.array(monos, dtype=np.intp).reshape(len(monos), self.dimension)
            coefs = np.array([self.terms[m] for m in monos], dtype=float)
            cached = (MonomialKernel(exps), coefs)
            object.__setattr__(self, "_arrays", cached)
        return cached

    def evaluate(self, point: Sequence[float]) -> float:
        pt = np.asarray(point, dtype=float)
        if pt.shape != (self.dimension,):
            raise ValueError(
                f"point has shape {pt.shape}, expected ({self.dimension},)")
        return float(self.evaluate_many(pt[None, :])[0])

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an array of points with shape (k, n)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError(
                f"points have shape {pts.shape}, expected (k, {self.dimension})")
        if not self.terms:
            return np.zeros(pts.shape[0])
        monomials, coefs = self._get_arrays()
        return evaluate_exponent_form(pts, monomials, coefs)

    __call__ = evaluate

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return poly_to_text(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.dimension}, {self.terms!r})"


@dataclass(frozen=True)
class PolynomialVectorField:
    """A vector field with one polynomial per state coordinate."""

    dimension: int
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.dimension:
            raise ValueError("need one component per dimension")
        for comp in comps:
            if comp.dimension != self.dimension:
                raise ValueError("component dimension mismatch")

    def degree(self) -> int:
        return max(c.degree() for c in self.components)

    def is_linear(self) -> bool:
        """True iff every component is homogeneous of degree one (or zero)."""
        for comp in self.components:
            if comp.is_zero():
                continue
            if not (comp.is_homogeneous() and comp.degree() == 1):
                return False
        return True

    def linear_matrix(self) -> np.ndarray:
        """Matrix A with f(x) = A x; requires is_linear()."""
        if not self.is_linear():
            raise ValueError("vector field is not linear")
        n = self.dimension
        A = np.zeros((n, n))
        for row, comp in enumerate(self.components):
            for mono, coef in comp.terms.items():
                col = mono.index(1)
                A[row, col] = coef
        return A


# -- calculus and evaluation ---------------------------------------------------


class MonomialKernel:
    """Values of a fixed list of monomials on blocks of points.

    The exponents are a (T, n) array, one row per monomial, listed in the
    order in which the caller sums the values: the order and the form of
    that sum fix the rounding of every result.  Points are an (n, k) block,
    one row per variable.  Each monomial is the product of the powers of
    the variables that occur, in variable order, and each power x^e the
    repeated product ((x x) x)...; two plans compute exactly these
    products, and the kernel takes the one that makes fewer numpy calls:

    - the power table holds the powers 0..top of all variables, one
      contiguous (n, k) level per power, each level the previous one times
      the points, and gathers one table row per variable for every
      monomial at once (a long V);
    - direct products write each monomial into its own row of the result,
      multiplying only its nonzero powers (a field of a few monomials).

    Both give the same bits: the table's factors x^0 are exactly 1.0, and a
    product with 1.0 or with its operands swapped rounds the same.
    """

    def __init__(self, exps: np.ndarray):
        n = exps.shape[1]
        self.top = int(exps.max()) if len(exps) else 0
        # row of x_j^e in the table flattened to ((top + 1) n, k)
        rows = exps * n + np.arange(n)
        self.columns = [rows[:, j] for j in range(n)
                        if exps[:, j].any()] or [rows[:, 0]]
        self.size = len(exps)
        # numpy calls per evaluation: the table's allocation, levels,
        # reshape and gathers, against the allocation and one step per
        # monomial of degree 0 or 1 and degree - 1 steps per other one
        table_calls = 2 + self.top + 2 * len(self.columns)
        direct_calls = 1 + int(np.maximum(exps.sum(axis=1) - 1, 1).sum())
        if direct_calls < table_calls:
            self.products, self.spare = _direct_products(exps)
            self._plan = self._direct
        else:
            self._plan = self._table

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Monomial values (T, k) at the points x (n, k)."""
        return self._plan(x)

    def _table(self, x: np.ndarray) -> np.ndarray:
        n, k = x.shape
        table = np.empty((self.top + 1, n, k))
        table[0] = 1.0
        if self.top:
            table[1] = x
        for e in range(2, self.top + 1):
            np.multiply(table[e - 1], x, out=table[e])
        table = table.reshape((self.top + 1) * n, k)
        monomials = table[self.columns[0]]
        for column in self.columns[1:]:
            monomials *= table[column]
        return monomials

    def _direct(self, x: np.ndarray) -> np.ndarray:
        out = np.empty((self.size + self.spare, x.shape[1]))
        # operands by index: the variables, then the rows of the result
        rows = [*x, *out]
        for a, b, to in self.products:
            if b is not None:
                np.multiply(rows[a], rows[b], out=rows[to])
            elif a is not None:
                rows[to][...] = rows[a]
            else:
                rows[to].fill(1.0)
        return out[:self.size] if self.spare else out


def _direct_products(exps: np.ndarray) -> tuple:
    """The steps of ``MonomialKernel._direct`` for the exponents (T, n):
    (a, b, to) writes operand a times operand b to operand to, (a, None,
    to) copies a and (None, None, to) writes 1.0, where operands 0..n-1
    are the variables, n + t is row t of the result and n + T a spare row
    for a power that cannot be formed in place.  Returns the steps and the
    number of spare rows, 0 or 1."""
    T, n = exps.shape
    spare = n + T
    steps = []

    def power(j, e, to):
        # x_j^e into operand ``to``, by repeated products
        steps.append((j, j, to))
        steps.extend((to, j, to) for _ in range(e - 2))

    for t, row in enumerate(exps.tolist()):
        to = n + t
        factors = [(j, e) for j, e in enumerate(row) if e]
        if not factors:
            steps.append((None, None, to))
            continue
        (j, e), rest = factors[0], factors[1:]
        if rest and e == 1 and rest[0][1] > 1:
            # p1 p2 = p2 p1: form the power in place, then times x_j
            (j, e), rest = rest[0], [(j, e), *rest[1:]]
        if e > 1:
            power(j, e, to)
        elif rest and rest[0][1] == 1:
            steps.append((j, rest[0][0], to))
            rest = rest[1:]
        else:
            steps.append((j, None, to))
        for j, e in rest:
            if e > 1:
                power(j, e, spare)
            steps.append((to, spare if e > 1 else j, to))
    uses_spare = any(spare in step for step in steps)
    return steps, int(uses_spare)


def evaluate_exponent_form(pts: np.ndarray, monomials: MonomialKernel,
                           coefs: np.ndarray) -> np.ndarray:
    """Evaluate sum_t coefs[t] * monomial_t at the points pts (k, n).

    The sum is one product of a C-contiguous (points x monomials) array
    with the coefficient vector; a strided view or the transposed product
    rounds differently.
    """
    return np.ascontiguousarray(monomials(pts.T).T) @ coefs


def gradient(p: Polynomial) -> tuple:
    """Tuple of partial derivatives (dp/dx1, ..., dp/dxn)."""
    return tuple(p.diff(k) for k in range(1, p.dimension + 1))


def lie_derivative(v: Polynomial, field) -> Polynomial:
    """grad(v) . f as an expanded polynomial."""
    if isinstance(field, PolynomialVectorField):
        comps = field.components
        if field.dimension != v.dimension:
            raise ValueError("dimension mismatch between polynomial and field")
    else:
        comps = tuple(field)
        if len(comps) != v.dimension:
            raise ValueError("dimension mismatch between polynomial and field")
    out = Polynomial.zero(v.dimension)
    for k, fk in enumerate(comps, start=1):
        out = out + v.diff(k) * fk
    return out


def even_power_norm(dimension: int, ell: int) -> Polynomial:
    """sum_k x_k^(2*ell), the even-power norm used to anchor Lyapunov scale."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    terms = {}
    for k in range(dimension):
        exp = [0] * dimension
        exp[k] = 2 * ell
        terms[tuple(exp)] = 1.0
    return Polynomial(dimension, terms)


# -- text form ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[-+*^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        if match.lastgroup == "num":
            tokens.append(("num", match.group("num"), match.start("num")))
        elif match.lastgroup == "var":
            tokens.append(("var", match.group("var"), match.start("var")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the +,-,*,^ polynomial grammar."""

    def __init__(self, text: str, dimension: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dimension = dimension

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, at = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", at)
        return self.advance()

    def parse(self) -> Polynomial:
        result = self.parse_expr()
        kind, value, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", at)
        return result

    def parse_expr(self) -> Polynomial:
        result = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.parse_term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def parse_term(self) -> Polynomial:
        result = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.parse_unary()
            else:
                return result

    def parse_unary(self) -> Polynomial:
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.parse_unary()
            return inner if value == "+" else -inner
        return self.parse_power()

    def parse_power(self) -> Polynomial:
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, at = self.peek()
            if kind == "op" and value == "-":
                raise ParseError("negative exponent not allowed", at)
            if kind != "num":
                raise ParseError("expected integer exponent after '^'", at)
            if "." in value or "e" in value or "E" in value:
                raise ParseError("fractional exponent not allowed", at)
            self.advance()
            return base ** int(value)
        return base

    def parse_atom(self) -> Polynomial:
        kind, value, at = self.peek()
        if kind == "num":
            self.advance()
            return Polynomial.constant(self.dimension, float(value))
        if kind == "var":
            self.advance()
            index = int(value[1:])
            if not 1 <= index <= self.dimension:
                raise ParseError(
                    f"variable {value} out of range for dimension {self.dimension}", at)
            return Polynomial.variable(self.dimension, index)
        if kind == "op" and value == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError(
            f"expected number, variable or '(' but found {value!r}" if value
            else "unexpected end of input", at)


def parse_expression(text: str, dimension: int) -> Polynomial:
    """Parse ``text`` into an expanded canonical polynomial in n variables."""
    return _Parser(text, dimension).parse()


def _format_coef(c: float) -> str:
    return format(c, ".17g")


def poly_to_text(p: Polynomial) -> str:
    """Descending graded-lex listing with round-trip-exact coefficients."""
    if not p.terms:
        return "0"
    monos = sorted(p.terms, key=lambda m: (-sum(m), tuple(-e for e in m)))
    pieces = []
    for mono in monos:
        coef = p.terms[mono]
        factors = [_format_coef(abs(coef))]
        for var, e in enumerate(mono, start=1):
            if e == 1:
                factors.append(f"x{var}")
            elif e > 1:
                factors.append(f"x{var}^{e}")
        term = "*".join(factors)
        if not pieces:
            pieces.append(term if coef >= 0 else f"-{term}")
        else:
            pieces.append(f"+ {term}" if coef >= 0 else f"- {term}")
    return " ".join(pieces)
