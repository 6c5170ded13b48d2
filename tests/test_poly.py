import numpy as np
import pytest

from switchcert.poly import (MonomialKernel, ParseError, Polynomial,
                             PolynomialVectorField, _direct_products,
                             even_power_norm, gradient,
                             lie_derivative, parse_expression, poly_to_text)


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


class TestMonomialKernel:
    """The power-table plan and the direct-product plan give the same bits,
    and the kernel takes the one with fewer numpy calls."""

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
            kernel = MonomialKernel(exps)
            # the direct plan of any exponents, and the count of its steps
            # by which the kernel chooses
            kernel.products, kernel.spare = _direct_products(exps)
            assert len(kernel.products) == np.maximum(
                exps.sum(axis=1) - 1, 1).sum()
            points = rng.normal(scale=2.0, size=(n, 33))
            # contiguous rows, and the strided rows of evaluate_many
            for x in (points, np.ascontiguousarray(points.T).T):
                table, direct = kernel._table(x), kernel._direct(x)
                assert table.shape == direct.shape == (len(exps), 33)
                assert table.tobytes() == direct.tobytes()

    def test_plan_choice(self):
        # the van der Pol field's three monomials are cheaper as direct
        # products, the 25 monomials of degrees 2..6 of a planar V as one
        # power table
        kernel = MonomialKernel(np.array([[0, 1], [1, 0], [2, 1]]))
        assert kernel._plan == kernel._direct
        exps = np.array([(a, d - a) for d in range(2, 7)
                         for a in range(d + 1)])
        kernel = MonomialKernel(exps)
        assert len(exps) == 25 and kernel._plan == kernel._table
