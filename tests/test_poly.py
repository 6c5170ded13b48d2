import numpy as np
import pytest

from switchcert import poly
from switchcert.poly import (ParseError, Polynomial, PolynomialVectorField,
                             even_power_norm, exponent_tables, gradient,
                             lie_derivative, monomial_kernel,
                             parse_expression, poly_to_text)


def random_poly(rng, n, max_degree, n_terms=6):
    terms = {}
    for _ in range(n_terms):
        exp = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=n))
        if sum(exp) > max_degree:
            continue
        terms[exp] = float(rng.normal())
    return Polynomial(n, terms)


class TestParse:
    def test_binomial_expansion(self):
        p = parse_expression("x1^2 - 2*x1*x2 + x2^2", 2)
        assert p.terms == {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0}

    def test_matrix_row_entry(self):
        p = parse_expression("0.2868*x1 - x2^2*x1", 2)
        assert p.terms == {(1, 0): 0.2868, (1, 2): -1.0}

    def test_cancellation_to_zero(self):
        p = parse_expression("(x1+x2)^2 - x1^2 - 2*x1*x2 - x2^2", 2)
        assert p.is_zero()

    def test_scientific_notation_and_unary(self):
        p = parse_expression("-1.5e-3*x1 + +2*x2", 2)
        assert p.terms == {(1, 0): -1.5e-3, (0, 1): 2.0}

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x1 + * x2", 2)
        assert err.value.position == 5

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError):
            parse_expression("x3 + 1", 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("x1^-2", 2)

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("x1^1.5", 2)

    def test_round_trip_term_for_term(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            for _ in range(20):
                p = random_poly(rng, n, 6)
                assert parse_expression(poly_to_text(p), n) == p


class TestGradient:
    def test_power_rule(self):
        g = gradient(parse_expression("x1^2*x2", 2))
        assert g[0] == parse_expression("2*x1*x2", 2)
        assert g[1] == parse_expression("x1^2", 2)

    def test_quartic_sum(self):
        g = gradient(parse_expression("x1^4 + x2^4", 2))
        assert g[0] == parse_expression("4*x1^3", 2)
        assert g[1] == parse_expression("4*x2^3", 2)

    def test_published_quartic_leading_coefficient(
            self, published_v_affine_pair):
        # d/dx1 of the 436.8*x1^4 leading term evaluated at (1, 0)
        g = gradient(published_v_affine_pair)
        assert g[0].evaluate([1.0, 0.0]) == pytest.approx(4 * 436.8, rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        step = 1e-5
        for _ in range(30):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, 5)
            g = gradient(p)
            x = rng.uniform(-1.0, 1.0, size=n)
            x *= min(1.0, 2.0 / max(np.linalg.norm(x), 1e-9))
            for k in range(n):
                e = np.zeros(n)
                e[k] = step
                fd = (p.evaluate(x + e) - p.evaluate(x - e)) / (2 * step)
                exact = g[k].evaluate(x)
                assert fd == pytest.approx(exact, rel=1e-5, abs=1e-7)


class TestLieDerivative:
    def test_stable_node(self):
        v = parse_expression("x1^2 + x2^2", 2)
        f = [parse_expression("-x1", 2), parse_expression("-x2", 2)]
        assert lie_derivative(v, f) == parse_expression("-2*x1^2 - 2*x2^2", 2)

    def test_rotation_conserves_radius(self):
        v = parse_expression("x1^2 + x2^2", 2)
        f = [parse_expression("x2", 2), parse_expression("-x1", 2)]
        assert lie_derivative(v, f).is_zero()

    def test_van_der_pol_first_component(self, vdp_pair):
        v = parse_expression("x1^2", 2)
        assert lie_derivative(v, vdp_pair.fields[0]) == \
            parse_expression("2*x1*x2", 2)

    def test_dimension_mismatch(self):
        v = parse_expression("x1^2", 1)
        with pytest.raises(ValueError):
            lie_derivative(v, [parse_expression("x1", 2),
                               parse_expression("x2", 2)])

    def test_matches_composed_gradient(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            v = random_poly(rng, n, 4)
            comps = tuple(random_poly(rng, n, 3) for _ in range(n))
            field = PolynomialVectorField(n, comps)
            lie = lie_derivative(v, field)
            g = gradient(v)
            for _ in range(5):
                x = rng.uniform(-1.5, 1.5, size=n)
                composed = sum(g[k].evaluate(x) * comps[k].evaluate(x)
                               for k in range(n))
                assert lie.evaluate(x) == pytest.approx(
                    composed, rel=1e-12, abs=1e-12)


class TestEvenPowerNorm:
    def test_ell_one(self):
        assert even_power_norm(2, 1) == parse_expression("x1^2 + x2^2", 2)

    def test_ell_two(self):
        assert even_power_norm(2, 2) == parse_expression("x1^4 + x2^4", 2)

    def test_three_dimensional(self):
        assert even_power_norm(3, 1) == \
            parse_expression("x1^2 + x2^2 + x3^2", 3)

    def test_rejects_zero_ell(self):
        with pytest.raises(ValueError):
            even_power_norm(2, 0)


class TestEvaluate:
    def test_published_leading_value(self, published_v_affine_pair):
        assert published_v_affine_pair.evaluate([1.0, 0.0]) == \
            pytest.approx(436.8, rel=1e-12)

    def test_origin_gives_constant_term(self):
        p = parse_expression("3.5 + x1 - x2^3", 2)
        assert p.evaluate([0.0, 0.0]) == 3.5

    def test_quartic_arithmetic(self):
        assert parse_expression("x1^4 + x2^4", 2).evaluate([1.0, 2.0]) == 17.0

    def test_product_homomorphism(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            p = random_poly(rng, n, 6)
            q = random_poly(rng, n, 6)
            pq = p * q
            pts = rng.uniform(-2.0, 2.0, size=(100, n))
            lhs = pq.evaluate_many(pts)
            rhs = p.evaluate_many(pts) * q.evaluate_many(pts)
            scale = 1.0 + np.abs(rhs)
            assert np.all(np.abs(lhs - rhs) / scale <= 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            parse_expression("x1", 1).evaluate([1.0, 2.0])


class TestDegreeInfo:
    def test_homogeneous_degree_twelve(self, published_v_linear_pair):
        p = published_v_linear_pair
        assert (p.degree(), p.is_homogeneous()) == (12, True)

    def test_inhomogeneous(self):
        p = parse_expression("x1^2 + x1", 2)
        assert (p.degree(), p.is_homogeneous()) == (2, False)

    def test_zero_polynomial_convention(self):
        p = Polynomial.zero(2)
        assert (p.degree(), p.is_homogeneous()) == (0, True)


class TestAlgebra:
    def test_remove_and_re_add_is_identity(self):
        p = parse_expression("2*x1^2 - x2", 2)
        q = p - parse_expression("2*x1^2", 2) + parse_expression("2*x1^2", 2)
        assert q == p

    def test_tiny_coefficients_dropped(self):
        p = Polynomial(2, {(1, 0): 1e-15})
        assert p.is_zero()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, value):
        # a NaN fails the magnitude test too, so it used to be dropped
        # like a tiny coefficient: nan * ||x||^4 became the zero polynomial
        with pytest.raises(ValueError, match="not finite"):
            Polynomial(2, {(1, 0): value})
        with pytest.raises(ValueError, match="not finite"):
            value * parse_expression("x1^4 + x2^4", 2)

    def test_commutativity_and_associativity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = random_poly(rng, 2, 4)
            b = random_poly(rng, 2, 4)
            c = random_poly(rng, 2, 4)
            assert a * b == b * a
            lhs, rhs = (a * b) * c, a * (b * c)
            diff = lhs - rhs
            scale = 1.0 + max(lhs.max_abs_coefficient(),
                              rhs.max_abs_coefficient())
            assert diff.max_abs_coefficient() <= 1e-12 * scale

    def test_immutability(self):
        p = parse_expression("x1", 1)
        with pytest.raises(AttributeError):
            p.dimension = 3


class TestVectorField:
    def test_linear_detection_and_matrix(self):
        f = PolynomialVectorField(2, (parse_expression("x2", 2),
                                      parse_expression("-3*x1 - 2*x2", 2)))
        assert f.is_linear()
        assert np.allclose(f.linear_matrix(),
                           [[0.0, 1.0], [-3.0, -2.0]])

    def test_nonlinear_flag(self, vdp_pair):
        assert vdp_pair.linear_flags == (False, True)

    def test_component_dimension_checked(self):
        with pytest.raises(ValueError):
            PolynomialVectorField(2, (parse_expression("x1", 1),
                                      parse_expression("x1", 1)))


def _random_exponents(rng, n, top, count, constant=False, absent=None):
    """``count`` distinct exponent rows with entries 0..top, in random
    order, with or without the constant monomial and variable ``absent``."""
    rows = {tuple(int(e) for e in rng.integers(0, top + 1, size=n))
            for _ in range(4 * count)}
    rows = [r for r in rows if any(r)
            and (absent is None or r[absent] == 0)][:count]
    if constant:
        rows.insert(int(rng.integers(0, len(rows) + 1)), (0,) * n)
    return np.array(rows, dtype=np.intp).reshape(len(rows), n)


def _power_table(exps, x):
    """Monomial values (T, k) at x (n, k) by the power table that computed
    them before the kernel was generated, kept as the reference: the powers
    0..top of all variables as contiguous (n, k) levels, each the previous
    one times the points, and one gathered table row per variable that
    occurs, multiplied in variable order."""
    n, k = x.shape
    top = int(exps.max()) if len(exps) else 0
    rows = exps * n + np.arange(n)
    columns = [rows[:, j] for j in range(n) if exps[:, j].any()] \
        or [rows[:, 0]]
    table = np.empty((top + 1, n, k))
    table[0] = 1.0
    if top:
        table[1] = x
    for e in range(2, top + 1):
        np.multiply(table[e - 1], x, out=table[e])
    table = table.reshape((top + 1) * n, k)
    monomials = table[columns[0]]
    for column in columns[1:]:
        monomials *= table[column]
    return monomials


def _assert_kernel_matches_table(exps, points):
    """The generated kernel has the power table's shape and bits on the
    points (n, k), as contiguous rows and as the strided rows that
    evaluate_exponent_form passes (``pts.T``)."""
    kernel = monomial_kernel(exps)
    with np.errstate(all="ignore"):
        for x in (points, np.ascontiguousarray(points.T).T):
            values, reference = kernel(x), _power_table(exps, x)
            assert values.shape == reference.shape == (len(exps), x.shape[1])
            assert values.tobytes() == reference.tobytes()


class TestMonomialKernel:
    """The generated kernel gives the bits of the power table."""

    @pytest.mark.parametrize("n, top, count, constant, absent", [
        pytest.param(2, 3, 5, True, None, id="constant_monomial"),
        pytest.param(3, 3, 6, False, 1, id="absent_variable"),
        pytest.param(3, 4, 12, True, None, id="3d"),
        pytest.param(3, 1, 5, False, None, id="exponent_one_only"),
        pytest.param(2, 6, 10, False, None, id="top_6")])
    def test_plans_give_the_same_bits(self, n, top, count, constant,
                                      absent):
        rng = np.random.default_rng(11)
        for _ in range(20):
            exps = _random_exponents(rng, n, top, count, constant, absent)
            _assert_kernel_matches_table(
                exps, rng.normal(scale=2.0, size=(n, 33)))

    @pytest.mark.parametrize("columns", [0, 1])
    def test_zero_and_one_columns(self, columns):
        rng = np.random.default_rng(12)
        for n, top, count in [(1, 4, 3), (2, 6, 10), (3, 4, 12)]:
            exps = _random_exponents(rng, n, top, count, constant=True)
            _assert_kernel_matches_table(exps, rng.normal(size=(n, columns)))

    def test_non_finite_and_signed_zero_inputs(self):
        # diverging RK4 stages hand the kernel inf and nans of either sign
        # (inf - inf is a negative nan here); a product of two nans is the
        # first one, so the kernel must keep the table's operand order
        rng = np.random.default_rng(13)
        special = [np.inf, -np.inf, np.nan, -np.nan, -0.0, 0.0, 1e200,
                   -1e-200]
        for n, top, count in [(2, 3, 8), (3, 4, 12), (2, 6, 20)]:
            for _ in range(10):
                exps = _random_exponents(rng, n, top, count, constant=True)
                points = rng.choice(special, size=(n, 40))
                points[:, :len(special)] = special
                _assert_kernel_matches_table(exps, points)

    def test_equal_tables_share_one_kernel(self):
        # one kernel per exponent table, so a fresh polynomial with a
        # known table compiles nothing; it gives an uncached kernel's bits
        p = parse_expression("x1^3 - 2*x1*x2 + x2^4 + 1", 2)
        q = parse_expression("5*x1^3 + x1*x2 - 3*x2^4 + 7", 2)
        exps = exponent_tables([p], 2)[0]
        assert np.array_equal(exps, exponent_tables([q], 2)[0])
        kernel = monomial_kernel(exponent_tables([p], 2)[0])
        assert monomial_kernel(exponent_tables([q], 2)[0]) is kernel
        assert monomial_kernel(exps.astype(np.int32)) is kernel
        fresh = poly._compiled_kernel.__wrapped__(exps.shape, exps.tobytes())
        assert fresh is not kernel
        x = np.random.default_rng(15).normal(size=(2, 17))
        assert kernel(x).tobytes() == fresh(x).tobytes()

    @pytest.mark.parametrize("n, count", [(4, 1820), (5, 6188)])
    def test_dense_degree_12_tables(self, n, count):
        exps = np.array([m for m in np.ndindex(*(13,) * n) if sum(m) <= 12])
        assert len(exps) == count
        rng = np.random.default_rng(14)
        _assert_kernel_matches_table(exps, rng.normal(size=(n, 9)))
