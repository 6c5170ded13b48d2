"""Correctness checks computed apart from switchcert.

Nothing here calls into ``poly``: V and its gradient are evaluated from V's
coefficient table with plain numpy powers, and each subsystem field is
written out below as numpy code.  SDP data is read from the ``SdpProblem``
arrays, and reference trajectories come from ``scipy.integrate.solve_ivp``.
"""

from __future__ import annotations

import numpy as np

# -- the bundled vector fields, written out -----------------------------------


def linear_field(A, offset=None):
    A = np.asarray(A, dtype=float)
    d = np.zeros(len(A)) if offset is None else np.asarray(offset, float)
    return lambda X: X @ A.T + d


def linear_pair(b):
    return [np.array([[0.0, 1.0], [-0.1, -2.0]]),
            np.array([[0.0, 1.0], [-float(b), -2.0]])]


def linear_pair_fields(b):
    return [linear_field(A) for A in linear_pair(b)]


def affine_pair_fields():
    A1, A2 = linear_pair(2.0)
    return [linear_field(A1), linear_field(A2, [1.0, 1.0])]


def affine_triple_fields():
    A = [[-1.0, -1.0], [1.0, -1.0]]
    return [linear_field(A, d) for d in ([1.0, 1.0], [-1.0, 1.0],
                                         [1.0, -1.0])]


def cubic_pair_fields():
    A1 = np.array([[0.2868, 1.5387, 0.1731],
                   [-0.3628, 0.0893, -0.6175],
                   [0.0892, 1.2898, -1.4316]])
    A2 = np.array([[-1.5007, 1.3875, -0.4402],
                   [0.4919, -1.5442, 0.1360],
                   [0.2914, -0.4561, 0.0231]])

    def f1(X):
        out = X @ A1.T
        out[:, 0] -= X[:, 1] ** 2 * X[:, 0]
        return out

    return [f1, linear_field(A2)]


def vdp_pair_fields():
    def f1(X):
        x1, x2 = X[:, 0], X[:, 1]
        return np.column_stack((x2, -x1 - x1 ** 2 * x2 + x2))

    return [f1, linear_field([[0.0, 1.0], [-6.0, -2.0]])]


# -- polynomials from their coefficient tables --------------------------------


class CoefficientPoly:
    """V(x) = sum_t c_t prod_j x_j^E_tj from exponent rows E and
    coefficients c."""

    def __init__(self, E, c):
        self.E, self.c = E, c

    def __call__(self, X):
        return np.prod(X[:, None, :] ** self.E[None], axis=2) @ self.c

    def gradient(self, X):
        out = np.empty_like(X)
        for k in range(self.E.shape[1]):
            E = self.E.copy()
            weight = self.c * E[:, k]
            E[:, k] = np.maximum(E[:, k] - 1.0, 0.0)
            out[:, k] = np.prod(X[:, None, :] ** E[None], axis=2) @ weight
        return out

    def abs_gradient(self, X):
        """Gradient of the polynomial with |coefficients| at |x|: the size
        of the terms that cancel in the gradient."""
        return np.abs(CoefficientPoly(self.E, np.abs(self.c))
                      .gradient(np.abs(X)))


def from_polynomial(polynomial):
    """A CoefficientPoly from a switchcert Polynomial's term table."""
    monos = sorted(polynomial.terms)
    E = np.array(monos, dtype=float).reshape(len(monos),
                                             polynomial.dimension)
    return CoefficientPoly(E, np.array([polynomial.terms[m] for m in monos]))


def unit_directions(n, count):
    """A fixed direction set: equally spaced angles in the plane, a
    Fibonacci lattice on the sphere in three dimensions."""
    if n == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.column_stack((np.cos(theta), np.sin(theta)))
    k = np.arange(count) + 0.5
    z = 1.0 - 2.0 * k / count
    phi = np.pi * (1.0 + 5 ** 0.5) * k
    r = np.sqrt(1.0 - z * z)
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


def random_directions(rng, n, count):
    dirs = rng.normal(size=(count, n))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


def outer_radii(V, gamma, dirs, r_max=30.0, scan=3001):
    """Largest r with V(r u) <= gamma along each direction u.

    Along a ray V is a polynomial in r whose coefficients come from V's
    terms grouped by degree; a scan finds the last sign change of
    V - gamma and bisection refines it to 1e-12 relative."""
    degree = V.E.sum(axis=1).astype(int)
    ray = np.zeros((len(dirs), degree.max() + 1))
    for d in np.unique(degree):
        rows = degree == d
        ray[:, d] = np.prod(dirs[:, None, :] ** V.E[rows][None], axis=2) \
            @ V.c[rows]

    def along(r):
        return np.sum(ray * np.power.outer(r, np.arange(ray.shape[1])),
                      axis=-1)

    radii = np.linspace(0.0, r_max, scan)
    powers = np.power.outer(radii, np.arange(ray.shape[1])).T
    last = np.empty(len(dirs), dtype=int)
    for k in range(0, len(dirs), 256):
        inside = ray[k:k + 256] @ powers <= gamma
        if np.any(inside[:, -1]):
            raise ValueError("sublevel set reaches the scan limit")
        last[k:k + 256] = scan - 1 - np.argmax(inside[:, ::-1], axis=1)
    lo, hi = radii[last], radii[last + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = along(mid) <= gamma
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return lo


def sublevel_area(V, gamma, count=4096):
    """Area of the planar set {V <= gamma}, star-shaped about the origin:
    half the periodic trapezoid integral of the squared outer radius."""
    radii = outer_radii(V, gamma, unit_directions(2, count))
    return float(np.pi * np.mean(radii ** 2))


# -- certificate properties ---------------------------------------------------

DECAY_RTOL = 1e-6


def decay_values(V, fields, delta, ell, points):
    """-grad V . f_i - delta*|x|_{2l}^{2l} at the points, one row per
    subsystem, and the same scaled by the size of the terms that cancel;
    below -DECAY_RTOL scaled, the decay condition fails."""
    grad = V.gradient(points)
    size = V.abs_gradient(points)
    norm = np.sum(points ** (2 * ell), axis=1)
    values, scaled = [], []
    for f in fields:
        fx = f(points)
        value = -np.sum(grad * fx, axis=1) - delta * norm
        scale = np.sum(size * np.abs(fx), axis=1) + delta * norm + 1e-300
        values.append(value)
        scaled.append(value / scale)
    return np.array(values), np.array(scaled)


def shell_points(rng, n, r_lo, r_hi, count):
    """Random points with radius uniform in [r_lo, r_hi]."""
    radius = rng.uniform(r_lo, r_hi, size=count)
    return random_directions(rng, n, count) * radius[:, None]


def ball_max(V, beta, rng, n, count=2000):
    """Largest V over the sphere |x|^2 = beta (fixed directions) and random
    points of the ball; the ball lies in {V <= gamma} when it is at most
    gamma."""
    if beta == 0:
        return float(V(np.zeros((1, n)))[0])
    r = np.sqrt(beta)
    sphere = unit_directions(n, 720 if n == 2 else 2000) * r
    inner = random_directions(rng, n, count) \
        * (r * rng.uniform(0.0, 1.0, size=count) ** (1.0 / n))[:, None]
    return float(np.max(V(np.vstack([sphere, inner]))))


def farkas_violation(problem, y):
    """Re-check a Farkas ray on the original SDP data.

    Returns (b.y, smallest eigenvalue of -sum_j y_j A_j over the blocks
    divided by max |y|, largest |d_k . y| over the free columns divided by
    max |y|).  A valid ray has b.y > 0 and the other two within a stated
    tolerance of the sign they must have."""
    y = np.asarray(y, dtype=float)
    scale = float(np.max(np.abs(y)))
    mats = [np.zeros((s, s)) for s in problem.block_sizes]
    free = np.zeros(problem.n_free)
    for j, entries in enumerate(problem.entries):
        for ent in entries:
            mats[ent.block][ent.rows, ent.cols] -= y[j] * ent.vals
            off = ent.rows != ent.cols
            mats[ent.block][ent.cols[off], ent.rows[off]] -= \
                y[j] * ent.vals[off]
        idx, vals = problem.free_rows[j]
        free[idx] += y[j] * vals
    min_eig = min(float(np.linalg.eigvalsh(M)[0]) for M in mats)
    free_res = float(np.max(np.abs(free))) if len(free) else 0.0
    return float(problem.rhs @ y), min_eig / scale, free_res / scale


# -- planar linear pair -------------------------------------------------------


def _has_negative_real_eigenvalue(M):
    eig = np.linalg.eigvals(M)
    return bool(np.any((np.abs(eig.imag) <= 1e-12 * np.abs(eig))
                       & (eig.real < 0)))


def cqlf_exists(A1, A2):
    """Shorten-Narendra: a planar Hurwitz pair has a common quadratic
    Lyapunov function iff A1 A2 and A1 A2^-1 have no negative real
    eigenvalue."""
    return not (_has_negative_real_eigenvalue(A1 @ A2)
                or _has_negative_real_eigenvalue(A1 @ np.linalg.inv(A2)))


def critical_cqlf_parameter(lo=0.5, hi=20.0):
    """Largest b with a CQLF for the linear pair, by bisection to 1e-10."""
    if not cqlf_exists(*linear_pair(lo)) or cqlf_exists(*linear_pair(hi)):
        raise ValueError("CQLF boundary not bracketed")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if cqlf_exists(*linear_pair(mid)):
            lo = mid
        else:
            hi = mid
    return lo


def worst_case_peak(b, count=200_001):
    """Largest norm any switching signal reaches from (1, 0), by the
    variational method: the worst trajectory turns clockwise and takes, at
    each angle, the subsystem with the largest log-growth per radian
    (u.Au) / -(u_perp.Au).  The peak lies in the first half-turn, since
    the growth integrand has period pi."""
    phi = np.linspace(0.0, np.pi, count)
    u = np.column_stack((np.cos(-phi), np.sin(-phi)))
    u_perp = np.column_stack((-u[:, 1], u[:, 0]))
    best = np.full(count, -np.inf)
    for A in linear_pair(b):
        Au = u @ A.T
        radial = np.sum(u * Au, axis=1)
        angular = np.sum(u_perp * Au, axis=1)
        clockwise = angular < 0
        best[clockwise] = np.maximum(best[clockwise],
                                     radial[clockwise] / -angular[clockwise])
    if not np.all(np.isfinite(best)):
        raise ValueError("no subsystem turns clockwise at some angle")
    growth = np.concatenate(([0.0], np.cumsum(
        0.5 * (best[1:] + best[:-1]) * np.diff(phi))))
    return float(np.exp(np.max(growth)))


# -- trajectories -------------------------------------------------------------


def rk4_reference_error(fields, switches, x0, h, times, states, every=50):
    """Largest |x_rk4 - x_ref| / (1 + |x_ref|) over every ``every``-th grid
    point and each segment end, with x_ref from DOP853 (rtol 1e-13) on the
    grid-snapped switching signal."""
    from scipy.integrate import solve_ivp  # not part of the timed set-up

    steps = [(int(round(t / h)), i) for t, i in switches]
    last = len(times) - 1
    bounds = sorted({min(k, last) for k, _ in steps} | {last})
    index_at = {}
    for k, i in steps:
        index_at[min(k, last)] = i
    worst = 0.0
    x = np.asarray(x0, dtype=float)
    active = steps[0][1]
    for start, stop in zip(bounds, bounds[1:]):
        active = index_at.get(start, active)
        f = fields[active - 1]
        grid = np.unique(np.r_[np.arange(start, stop, every), stop])
        sol = solve_ivp(lambda t, z: f(z[None, :])[0],
                        (times[start], times[stop]), x, method="DOP853",
                        rtol=1e-13, atol=1e-13, t_eval=times[grid])
        ref = sol.y.T
        err = np.linalg.norm(states[grid] - ref, axis=1) \
            / (1.0 + np.linalg.norm(ref, axis=1))
        worst = max(worst, float(np.max(err)))
        x = ref[-1]
    return worst
