import functools
import re
import signal

import numpy as np
import pytest

from conftest import SYSTEMS, linear_pair_matrices
from switchcert import sim
from switchcert.certify import (AbsorbingSetCertificate, CertificationQuery,
                                SwitchedSystem, escalate)
from switchcert.cli import load_system
from switchcert.poly import (Polynomial, PolynomialVectorField,
                             exponent_tables, lie_derivative,
                             parse_expression)
from switchcert.sim import (CertificateContradictionError, SwitchingSignal,
                            adversarial_switching, check_absorption,
                            integrate, integrate_batch, random_switching)


@pytest.fixture(scope="module")
def decay_1d():
    return SwitchedSystem.from_matrices([np.array([[-1.0]])])


@pytest.fixture(scope="module")
def rotation():
    return SwitchedSystem.from_matrices([np.array([[0.0, 1.0], [-1.0, 0.0]])])


def _field(*components):
    return PolynomialVectorField(
        len(components),
        tuple(parse_expression(c, len(components)) for c in components))


@pytest.fixture(scope="module")
def mixed_triple():
    """A linear, an affine and a cubic subsystem."""
    return SwitchedSystem(2, (
        _field("-0.5*x1 + 2*x2", "-2*x1 - 0.5*x2"),
        _field("x2 + 0.3", "-x1 - x2 - 0.2"),
        _field("-x1 + x2 - x1^3", "-x1 - x2^3")))


@pytest.fixture(scope="module")
def linear_pair():
    """The linear pair at b = 13.26: both subsystems step by one-step
    matrices."""
    return SwitchedSystem.from_matrices(linear_pair_matrices(13.26))


@pytest.fixture(scope="module")
def vdp_certificate(vdp_pair):
    """The degree-6 van der Pol certificate of criterion 6."""
    return escalate(vdp_pair, CertificationQuery(
        ell=1, delta=1e-4, degree=6, beta=14.0)).certificate


def _certificate(system, text, gamma):
    return AbsorbingSetCertificate(
        dimension=system.dimension, n_subsystems=system.n_subsystems,
        lyapunov=parse_expression(text, system.dimension),
        beta=1.0, delta=1.0, ell=1, gamma=gamma)


def _numpy_greedy(system, V, x0, h, horizon):
    """The greedy signal stepped on one numpy column with the batch
    steppers, as adversarial_switching did before it moved to floats."""
    n = system.dimension
    x = sim.check_starts(system, [x0]).T.copy()
    if V is None:
        V = Polynomial(n, {tuple(2 if k == j else 0 for k in range(n)): 1.0
                           for j in range(n)})
    rates = sim._evaluator([lie_derivative(V, f) for f in system.fields], n)
    dts, times = sim._grid(horizon, h)
    steppers = sim._steppers(system, dts)
    switches = []
    current = None
    for k, dt in enumerate(dts):
        choice = int(rates(x).argmax()) + 1
        if choice != current:
            switches.append((times[k], choice))
            current = choice
        x = steppers[choice - 1](x, dt)
        if not sim._within_guard(x)[0]:
            break
    return SwitchingSignal(horizon, tuple(switches))


class _PerStepAbsorption(sim._Absorption):
    """The absorption bookkeeping of a march taken one grid point at a time,
    with V on each step's blocks, as check_absorption did before it took
    chunks of steps."""

    def __init__(self, cert, march):
        super().__init__(cert, march)
        self.V = sim._evaluator([cert.lyapunov], cert.dimension)
        self.v = self.V(march.x0)[0]

    def __call__(self, point, blocks, left):
        steps = blocks[0][1].shape[1]
        for j in range(steps):
            self.step(point + j, [(rows, xb[:, j]) for rows, xb in blocks],
                      left if j == steps - 1 else [])

    def step(self, point, blocks, left):
        if left:
            raise CertificateContradictionError(
                f"trajectory diverged under a certified system "
                f"(signal {self.march.signal_of_row[min(left)]}, "
                f"t={self.march.times[point]})")
        for rows, xb in blocks:
            self.v[rows] = self.V(xb)[0]
        newly = (~self.entered) & (self.v <= self.gamma)
        self.entry_time[newly] = self.march.times[point]
        self.entered |= newly
        self.post_max = np.where(
            self.entered, np.maximum(self.post_max, self.v - self.gamma),
            self.post_max)


def _per_step_absorption(system, cert, starts, signals, h, horizon):
    march = sim._March(system, signals, starts, h, horizon)
    absorption = _PerStepAbsorption(cert, march)
    march.run(absorption)
    return absorption.report(starts)


def _assert_same_reports(ours, theirs):
    assert ours.not_entered == theirs.not_entered
    assert len(ours.records) == len(theirs.records)
    for a, b in zip(ours.records, theirs.records):
        assert np.array_equal(a.x0, b.x0)
        assert (a.signal_index, a.first_entry_time, a.post_entry_max,
                a.violated) == (b.signal_index, b.first_entry_time,
                                b.post_entry_max, b.violated)


def _rk4_reference(A, x, dt):
    """One classical RK4 step of x' = Ax, stage by stage."""
    k1 = A @ x
    k2 = A @ (x + 0.5 * dt * k1)
    k3 = A @ (x + 0.5 * dt * k2)
    k4 = A @ (x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestSwitchingSignal:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            SwitchingSignal(1.0, ((0.5, 1),))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            SwitchingSignal(1.0, ((0.0, 1), (0.5, 2), (0.5, 1)))

    @pytest.mark.parametrize("horizon, switches, field", [
        pytest.param(np.nan, ((0.0, 1),), "horizon", id="nan_horizon"),
        pytest.param(np.inf, ((0.0, 1),), "horizon", id="inf_horizon"),
        pytest.param(-1.0, ((0.0, 1),), "horizon", id="negative_horizon"),
        pytest.param(0.0, ((0.0, 1),), "horizon", id="zero_horizon"),
        pytest.param(1.0, ((0.0, 1), (np.inf, 2)), "switches",
                     id="inf_switch_time"),
        pytest.param(1.0, ((0.0, 1), (np.nan, 2)), "switches",
                     id="nan_switch_time"),
        pytest.param(1.0, ((np.nan, 1),), "switches", id="nan_first_time")])
    def test_non_finite_or_non_positive_rejected(self, horizon, switches,
                                                 field):
        # integrate snaps switch times to a grid that ends at the horizon,
        # so neither may be non-finite
        with pytest.raises(ValueError, match=field):
            SwitchingSignal(horizon, switches)

    def test_index_lookup(self):
        # the switch at 0.0024 snaps to the grid point 0.002
        system = SwitchedSystem.from_matrices([-np.eye(2), -2.0 * np.eye(2)])
        signal = SwitchingSignal(0.004, ((0.0, 1), (0.0024, 2)))
        trajectory = integrate(system, signal, [1.0, 0.0], 1e-3, 0.004)
        assert trajectory.active.tolist() == [1, 1, 2, 2, 2]


class TestIntegrate:
    def test_exponential_one_step(self, decay_1d):
        trajectory = integrate(decay_1d, SwitchingSignal.constant(1, 0.1),
                               [1.0], 0.1, 0.1)
        assert trajectory.final_state[0] == pytest.approx(0.9048375,
                                                          abs=1e-12)
        assert abs(trajectory.final_state[0] - np.exp(-0.1)) < 1e-7

    def test_rotation_returns_home(self, rotation):
        trajectory = integrate(rotation, SwitchingSignal.constant(1, 2 * np.pi),
                               [1.0, 0.0], 1e-3, 2 * np.pi)
        assert np.linalg.norm(trajectory.final_state - [1.0, 0.0]) < 1e-6

    def test_fourth_order_convergence(self, decay_1d):
        errors = []
        for h in (0.1, 0.05, 0.025):
            trajectory = integrate(decay_1d, SwitchingSignal.constant(1, 1.0),
                                   [1.0], h, 1.0)
            errors.append(abs(trajectory.final_state[0] - np.exp(-1.0)))
        for a, b in zip(errors, errors[1:]):
            assert 4.0 <= a / b <= 64.0  # h^4 scaling within a factor of 4

    def test_concatenation_is_bitwise(self):
        system = SwitchedSystem.from_matrices(
            [np.array([[0.0, 1.0], [-1.0, 0.0]]),
             np.array([[-1.0, 0.0], [0.0, -1.0]])])
        full = integrate(system, SwitchingSignal(2.0, ((0.0, 1), (1.0, 2))),
                         [1.0, 0.5], 1e-2, 2.0)
        first = integrate(system, SwitchingSignal.constant(1, 1.0),
                          [1.0, 0.5], 1e-2, 1.0)
        second = integrate(system, SwitchingSignal.constant(2, 1.0),
                           first.final_state, 1e-2, 1.0)
        assert np.array_equal(second.final_state, full.final_state)

    def test_linear_steps_match_stagewise_rk4_off_grid_horizon(self):
        # 1000 full steps of h and one remainder step of 5e-4, with switches
        # at steps 400 and 700
        matrices = linear_pair_matrices(13.26)
        system = SwitchedSystem.from_matrices(matrices)
        h, horizon = 1e-3, 1.0005
        signal = SwitchingSignal(horizon, ((0.0, 1), (0.4, 2), (0.7, 1)))
        trajectory = integrate(system, signal, [1.0, 0.5], h, horizon)
        assert len(trajectory.times) == 1002
        assert trajectory.times[-1] == horizon

        x = np.array([1.0, 0.5])
        reference = [x]
        for k in range(1001):
            index = 2 if 400 <= k < 700 else 1
            dt = h if k < 1000 else horizon - 1000 * h
            x = _rk4_reference(matrices[index - 1], x, dt)
            reference.append(x)
        reference = np.array(reference)
        scale = np.max(np.linalg.norm(reference, axis=1))
        assert np.max(np.abs(trajectory.states - reference)) <= 1e-13 * scale

    @pytest.mark.parametrize("h, horizon", [
        (0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
        (1e-2, 0.0), (1e-2, np.nan), (1e-2, np.inf), (1e-2, -1.0)])
    def test_step_and_horizon_must_be_finite_and_positive(self, decay_1d, h,
                                                          horizon):
        with pytest.raises(ValueError, match="finite and positive"):
            integrate(decay_1d, SwitchingSignal.constant(1, 1.0), [1.0], h,
                      horizon)

    def test_divergence_flag(self):
        system = SwitchedSystem.from_matrices([np.array([[2.0]])])
        trajectory = integrate(system, SwitchingSignal.constant(1, 40.0),
                               [1.0], 1e-2, 40.0)
        assert trajectory.diverged
        assert trajectory.diverged_at is not None

    def test_energy_strictly_decreasing(self, decay_1d):
        trajectory = integrate(decay_1d, SwitchingSignal.constant(1, 5.0),
                               [2.0], 1e-2, 5.0)
        energy = trajectory.states[:, 0] ** 2
        assert np.all(np.diff(energy) < 0)


class TestStarts:
    """A start that is not finite, or lies beyond the divergence guard,
    cannot be told from a divergence: every entry point rejects it."""

    @pytest.mark.parametrize("x0", [
        [np.nan, 0.0], [0.0, -np.inf], [1e300, 1e300], [2e12, 0.0]])
    @pytest.mark.parametrize("entry", [
        "integrate", "integrate_batch", "check_absorption",
        "adversarial_switching"])
    def test_rejected(self, rotation, entry, x0):
        signal = SwitchingSignal.constant(1, 1.0)
        cert = _certificate(rotation, "x1^2 + x2^2", 1.0)
        starts = np.array([[0.5, 0.5], x0])
        calls = {
            "integrate": lambda: integrate(rotation, signal, x0, 1e-2, 1.0),
            "integrate_batch": lambda: integrate_batch(
                rotation, [signal], starts, 1e-2, 1.0, cert),
            "check_absorption": lambda: check_absorption(
                rotation, cert, starts, [signal], h=1e-2),
            "adversarial_switching": lambda: adversarial_switching(
                rotation, None, x0, 1e-2, 1.0),
        }
        with pytest.raises(ValueError, match=re.escape(
                f"initial state {[float(v) for v in x0]} must be finite "
                f"with norm at most 1e+12")):
            calls[entry]()

    def test_start_on_the_guard_accepted(self, rotation):
        trajectory = integrate(rotation, SwitchingSignal.constant(1, 0.1),
                               [1e12, 0.0], 1e-2, 0.1)
        assert trajectory.states[0].tolist() == [1e12, 0.0]


class TestSignalHorizon:
    """A signal says nothing past its own horizon: it holds no switch
    beyond it, and no entry point integrates past it."""

    def test_switch_beyond_horizon_rejected(self):
        with pytest.raises(ValueError, match="must not exceed the horizon"):
            SwitchingSignal(1.0, ((0.0, 1), (1.5, 2)))

    def test_switch_at_horizon_accepted(self):
        assert SwitchingSignal(1.0, ((0.0, 1), (1.0, 2))).n_switches == 1

    @pytest.mark.parametrize("entry", [
        "integrate", "integrate_batch", "check_absorption",
        "check_absorption_default"])
    def test_integration_beyond_a_signal_rejected(self, rotation, entry):
        short = SwitchingSignal(1.0, ((0.0, 1), (0.5, 1)))
        long = SwitchingSignal.constant(1, 2.0)
        cert = _certificate(rotation, "x1^2 + x2^2", 1.0)
        starts = np.array([[0.5, 0.5]])
        calls = {
            "integrate": lambda: integrate(rotation, short, [0.5, 0.5],
                                           1e-2, 2.0),
            "integrate_batch": lambda: integrate_batch(
                rotation, [long, short], starts, 1e-2, 2.0),
            "check_absorption": lambda: check_absorption(
                rotation, cert, starts, [short], h=1e-2, horizon=2.0),
            # the default is the longest signal's horizon
            "check_absorption_default": lambda: check_absorption(
                rotation, cert, starts, [long, short], h=1e-2),
        }
        with pytest.raises(ValueError, match=re.escape(
                "horizon 2 exceeds the horizon 1 of a switching signal")):
            calls[entry]()

    def test_shorter_horizon_accepted(self, rotation):
        cert = _certificate(rotation, "x1^2 + x2^2", 1.0)
        signals = [SwitchingSignal.constant(1, 2.0),
                   SwitchingSignal(1.0, ((0.0, 1), (0.5, 1)))]
        report = check_absorption(rotation, cert, np.array([[0.5, 0.5]]),
                                  signals, h=1e-2, horizon=1.0)
        assert len(report.records) == 2


class TestRandomSwitching:
    def test_single_subsystem_constant(self):
        signal = random_switching(1, 10.0, 0.5, seed=1)
        assert all(idx == 1 for _, idx in signal.switches)

    def test_seed_determinism(self):
        assert random_switching(2, 20.0, 0.5, 7) == \
            random_switching(2, 20.0, 0.5, 7)

    def test_poisson_count(self):
        counts = [random_switching(2, 20.0, 0.5, seed).n_switches
                  for seed in range(100)]
        assert 40 * 0.7 <= np.mean(counts) <= 40 * 1.3


    @pytest.mark.parametrize("horizon, mean_dwell", [
        (np.inf, 0.5), (np.nan, 0.5), (0.0, 0.5), (5.0, 0.0), (5.0, np.nan),
        (5.0, np.inf), (5.0, -1.0)])
    def test_horizon_and_dwell_must_be_finite_and_positive(self, horizon,
                                                           mean_dwell):
        # an infinite horizon used to loop forever: stop it after one second
        def stop(signum, frame):
            raise TimeoutError("random_switching did not return")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.alarm(1)
        try:
            with pytest.raises(ValueError, match="finite and positive"):
                random_switching(2, horizon, mean_dwell, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestAdversarialSwitching:
    def test_single_subsystem_constant(self, rotation):
        signal = adversarial_switching(rotation, None, [1.0, 0.0], 1e-2, 5.0)
        assert signal.switches == ((0.0, 1),)

    def test_wrong_dimension_rejected(self, rotation):
        with pytest.raises(ValueError, match="wrong dimension"):
            adversarial_switching(rotation, None, [1.0, 0.0, 0.0], 1e-2, 1.0)

    def test_growth_beyond_critical_parameter(self):
        # the worst-case switching law destabilises this pair for b above
        # roughly 13.28; at b=16 the greedy signal grows strongly
        system = SwitchedSystem.from_matrices(linear_pair_matrices(16.0))
        signal = adversarial_switching(system, None, [1.0, 0.0], 1e-3, 50.0)
        trajectory = integrate(system, signal, [1.0, 0.0], 1e-3, 50.0)
        assert np.linalg.norm(trajectory.final_state) >= 10.0

    def test_linear_pair_matches_reference_greedy(self):
        # greedy on the squared norm: the rate of subsystem i is x . A_i x
        matrices = linear_pair_matrices(13.26)
        system = SwitchedSystem.from_matrices(matrices)
        h = 1e-3
        signal = adversarial_switching(system, None, [1.0, 0.0], h, 5.0)

        x = np.array([1.0, 0.0])
        switches = []
        current = None
        for k in range(5000):
            choice = int(np.argmax([x @ (A @ x) for A in matrices])) + 1
            if choice != current:
                switches.append((k * h, choice))
                current = choice
            x = _rk4_reference(matrices[choice - 1], x, h)
        assert len(switches) > 2
        assert signal.switches == tuple(switches)

    @pytest.mark.parametrize("b, x0, h, horizon", [
        pytest.param(13.26, [1.0, 0.0], 1e-3, 50.0, id="b13.26"),
        # the greedy state leaves the guard at t = 428.03
        pytest.param(16.0, [1.0, 0.0], 1e-2, 600.0, id="b16_diverges"),
        pytest.param(None, [-3.8, -9.5], 1e-3, 15.0, id="vdp")])
    def test_matches_numpy_greedy(self, b, x0, h, horizon, request):
        if b is None:
            system = request.getfixturevalue("vdp_pair")
            V = request.getfixturevalue("vdp_certificate").lyapunov
        else:
            system = SwitchedSystem.from_matrices(linear_pair_matrices(b))
            V = None
        signal = adversarial_switching(system, V, x0, h, horizon)
        assert signal.n_switches > 5
        assert signal.switches == _numpy_greedy(system, V, x0, h,
                                                horizon).switches
        trajectory = integrate(system, signal, x0, h, horizon)
        assert trajectory.diverged == (b == 16.0)

    def test_certificate_v_non_increasing_outside_set(self):
        system = SwitchedSystem.from_matrices(linear_pair_matrices(12.0))
        out = escalate(system, CertificationQuery(
            ell=6, delta=0.001, degree=12, beta=0.0))
        V = out.certificate.lyapunov
        signal = adversarial_switching(system, V, [2.0, 1.0], 1e-3, 10.0)
        trajectory = integrate(system, signal, [2.0, 1.0], 1e-3, 10.0)
        values = V.evaluate_many(trajectory.states)
        outside = values > out.certificate.gamma
        drops = np.diff(values)
        slack = 1e-9 * (1.0 + np.abs(values[:-1]))
        assert np.all(drops[outside[:-1]] <= slack[outside[:-1]])


class TestCheckAbsorption:
    def test_inside_start_enters_at_time_zero(self, decay_1d):
        cert = AbsorbingSetCertificate(
            dimension=1, n_subsystems=1, lyapunov=parse_expression("x1^2", 1),
            beta=1.0, delta=1.0, ell=1, gamma=1.0)
        report = check_absorption(
            decay_1d, cert, np.array([[0.5]]),
            [SwitchingSignal.constant(1, 1.0)], h=1e-2)
        assert report.records[0].first_entry_time == 0.0
        assert report.violations == 0

    def test_no_re_exit_along_random_signals(self):
        system = SwitchedSystem.from_matrices(linear_pair_matrices(5.0))
        out = escalate(system, CertificationQuery(ell=1, degree=2, beta=0.0))
        cert = out.certificate
        grid = np.array([[a, b] for a in np.linspace(-2, 2, 4)
                         for b in np.linspace(-2, 2, 4)])
        signals = [random_switching(2, 5.0, 0.5, seed) for seed in range(5)]
        report = check_absorption(system, cert, grid, signals, h=1e-3)
        assert report.violations == 0

    def test_affine_pair_absorption_over_window(self, affine_pair):
        # 100 random seeds plus the greedy adversarial signal, grid spanning
        # the reporting window
        out = escalate(affine_pair, CertificationQuery(
            ell=2, delta=1.0, degree=4, beta=3.3))
        xs = np.linspace(-3.0, 3.0, 4)
        ys = np.linspace(-4.0, 4.0, 4)
        grid = np.array([[a, b] for a in xs for b in ys])
        signals = [random_switching(2, 8.0, 0.5, seed) for seed in range(100)]
        signals.append(adversarial_switching(
            affine_pair, out.certificate.lyapunov, grid[0], 2e-3, 8.0))
        report = check_absorption(affine_pair, out.certificate, grid, signals,
                                  h=2e-3, horizon=8.0)
        assert report.violations == 0
        assert report.max_post_entry <= out.certificate.gamma * 1e-3

    def test_divergence_contradiction_raises(self):
        system = SwitchedSystem.from_matrices([np.array([[2.0, 0.0],
                                                         [0.0, 2.0]])])
        cert = AbsorbingSetCertificate(
            dimension=2, n_subsystems=1,
            lyapunov=parse_expression("x1^2 + x2^2", 2),
            beta=1.0, delta=1.0, ell=1, gamma=1.0)
        with pytest.raises(CertificateContradictionError):
            check_absorption(system, cert, np.array([[3.0, 0.0]]),
                             [SwitchingSignal.constant(1, 40.0)], h=1e-2,
                             horizon=40.0)

    def test_signal_index_beyond_subsystems_rejected(self, decay_1d):
        cert = AbsorbingSetCertificate(
            dimension=1, n_subsystems=1, lyapunov=parse_expression("x1^2", 1),
            beta=1.0, delta=1.0, ell=1, gamma=1.0)
        signal = SwitchingSignal(1.0, ((0.0, 1), (0.5, 2)))
        with pytest.raises(ValueError, match="exceeds subsystem count"):
            check_absorption(decay_1d, cert, np.array([[0.5]]), [signal],
                             h=1e-2)

    def test_empty_signal_list_rejected(self, decay_1d):
        cert = AbsorbingSetCertificate(
            dimension=1, n_subsystems=1, lyapunov=parse_expression("x1^2", 1),
            beta=1.0, delta=1.0, ell=1, gamma=1.0)
        with pytest.raises(ValueError, match="no switching signals"):
            check_absorption(decay_1d, cert, np.array([[0.5]]), [], h=1e-2)

    def test_certificate_dimension_must_match_system(self, decay_1d):
        cert = AbsorbingSetCertificate(
            dimension=3, n_subsystems=1,
            lyapunov=parse_expression("x1^2 + x2^2 + x3^2", 3),
            beta=1.0, delta=1.0, ell=1, gamma=1.0)
        with pytest.raises(ValueError, match="does not match system dimension"):
            check_absorption(decay_1d, cert, np.array([[0.5]]),
                             [SwitchingSignal.constant(1, 1.0)], h=1e-2)

    def test_certificate_must_cover_every_subsystem(
            self, affine_pair_plus_third, affine_pair_certificate):
        # the pair's certificate says nothing about the third subsystem
        with pytest.raises(ValueError,
                           match="certificate does not match system dimensions"):
            check_absorption(affine_pair_plus_third, affine_pair_certificate,
                             np.array([[0.5, 0.5]]),
                             [SwitchingSignal.constant(3, 1.0)], h=1e-2)

    @pytest.mark.parametrize("case", ["vdp_pair", "mixed_triple"])
    def test_rows_match_integrate(self, case, request):
        # signals that switch every 0.2 s on average move rows between the
        # subsystem blocks many times within the 2 s horizon
        system = request.getfixturevalue(case)
        cert = _certificate(system, "x1^2 + 0.25*x1*x2 + 0.5*x2^2 + 0.01*x1^4",
                            1.5)
        starts = np.array([[0.5, 0.5], [2.5, -1.0], [-2.0, 1.5],
                           [1.0, 2.5]])
        signals = [random_switching(system.n_subsystems, 2.0, 0.2, seed)
                   for seed in range(3)]
        h = 2e-3
        report = check_absorption(system, cert, starts, signals, h=h)
        assert len(report.records) == len(signals) * len(starts)

        entered_later = set()
        for row, record in enumerate(report.records):
            signal = signals[row // len(starts)]
            assert record.signal_index == row // len(starts)
            trajectory = integrate(system, signal, starts[row % len(starts)],
                                   h, 2.0)
            values = cert.lyapunov.evaluate_many(trajectory.states)
            inside = np.flatnonzero(values <= cert.gamma)
            if len(inside) == 0:
                assert record.first_entry_time is None
                continue
            entry = inside[0]
            assert record.first_entry_time == trajectory.times[entry]
            entered_later.add(entry > 0)
            # the excess counts from the entry step on, but not at time 0
            after = values[max(entry, 1):]
            assert abs(record.post_entry_max - (after.max() - cert.gamma)) \
                <= 1e-12 * cert.gamma
        # some rows start inside the set and some enter it later
        assert entered_later == {False, True}

    def test_first_divergence_names_lowest_row(self):
        # both subsystems are x' = 2x, so rows 0 (signal 0, stepped in the
        # second block) and 2 (signal 1, first block) pass the guard at the
        # same step; the lower row names the signal
        growth = np.array([[2.0, 0.0], [0.0, 2.0]])
        system = SwitchedSystem.from_matrices([growth, growth])
        cert = _certificate(system, "x1^2 + x2^2", 1.0)
        starts = np.array([[3.0, 0.0], [1e-3, 0.0]])
        signals = [SwitchingSignal.constant(2, 20.0),
                   SwitchingSignal.constant(1, 20.0)]
        with pytest.raises(CertificateContradictionError) as caught:
            check_absorption(system, cert, starts, signals, h=1e-2)
        found = re.search(r"signal (\d+), t=([0-9.]+)\)", str(caught.value))
        assert found is not None
        assert int(found.group(1)) == 0
        first = integrate(system, signals[0], starts[0], 1e-2, 20.0)
        assert first.diverged
        assert float(found.group(2)) == first.diverged_at


class TestAbsorptionChunks:
    """check_absorption takes the march's states in chunks of steps; its
    records are those of the bookkeeping taken one grid point at a time."""

    STARTS = np.array([[0.5, 0.5], [2.5, -1.0], [-2.0, 1.5], [1.0, 2.5],
                       [0.2, -0.3]])

    @pytest.mark.parametrize("columns", [64, 1024])
    @pytest.mark.parametrize("case", ["vdp_pair", "mixed_triple",
                                      "cubic_3d_pair"])
    def test_records_match_per_step_bookkeeping(self, case, columns,
                                                monkeypatch, request):
        monkeypatch.setattr(sim, "CHUNK_COLUMNS", columns)
        system = request.getfixturevalue(case)
        starts, V = self.STARTS, "x1^2 + 0.25*x1*x2 + 0.5*x2^2 + 0.01*x1^4"
        if system.dimension == 3:
            starts = np.column_stack([starts, [0.3, -1.0, 0.8, -0.5, 0.1]])
            V += " + x3^2"
        # every monomial of degree 2 to 4, as in a certificate's V: BLAS
        # rounds a sum of that many terms by the column's place in the
        # product
        n = system.dimension
        rng = np.random.default_rng(2)
        V = parse_expression(V, n) + Polynomial(n, {
            m: 1e-3 * rng.normal() for m in np.ndindex(*(5,) * n)
            if 2 <= sum(m) <= 4})
        cert = AbsorbingSetCertificate(
            dimension=n, n_subsystems=system.n_subsystems, lyapunov=V,
            beta=1.0, delta=1.0, ell=1, gamma=1.5)
        signals = [random_switching(system.n_subsystems, 2.0, 0.2, seed)
                   for seed in range(3)]
        h = 2e-3
        march = sim._March(system, signals, starts, h, 2.0)
        absorption = sim._Absorption(cert, march)
        V = sim._evaluator([V], n)
        chunks = []

        def spy(point, blocks, left):
            # V of a chunk has the bits of V taken step by step
            chunks.append((point, blocks[0][1].shape[1]))
            for rows, xb in blocks:
                by_step = [V(xb[:, j].copy())[0] for j in range(xb.shape[1])]
                assert (absorption.lyapunov(xb).tobytes()
                        == np.array(by_step).tobytes())

        march.run(spy, absorption)
        report = absorption.report(starts)
        _assert_same_reports(report, _per_step_absorption(
            system, cert, starts, signals, h, 2.0))
        _assert_same_reports(check_absorption(system, cert, starts, signals,
                                              h=h), report)

        # the cases the chunks must cover: chunks that end at a switch
        # segment's end and at the width cap, rows that start inside the
        # set and rows that enter within a chunk
        stops = {stop for _, stop in sim._segments(march.active,
                                                   len(march.dts))}
        ends = {point + steps - 1 in stops for point, steps in chunks}
        assert ends == {True, False}
        firsts = {point for point, _ in chunks}
        entries = [round(r.first_entry_time / h) for r in report.records
                   if r.first_entry_time is not None]
        assert 0 in entries
        assert any(p > 0 and p not in firsts for p in entries)

    def test_divergence_within_a_chunk(self):
        # the rows of signal 0 leave the guard near t = 13.2, at a step in
        # the middle of a 512-step chunk, and signal 0 is named
        growth = np.array([[2.0, 0.0], [0.0, 2.0]])
        system = SwitchedSystem.from_matrices([growth, growth])
        cert = _certificate(system, "x1^2 + x2^2", 1.0)
        starts = np.array([[3.0, 0.0], [1e-3, 0.0]])
        signals = [SwitchingSignal.constant(2, 20.0),
                   SwitchingSignal.constant(1, 20.0)]
        march = sim._March(system, signals, starts, 1e-2, 20.0)
        chunks = []
        with pytest.raises(CertificateContradictionError) as caught:
            march.run(lambda point, blocks, left: chunks.append(
                (point, blocks[0][1].shape[1])), sim._Absorption(cert, march))
        # blocks of two rows: the divergence cuts the third chunk short
        point, steps = chunks[-1]
        assert point == 1025 and 1 < steps < 512
        with pytest.raises(CertificateContradictionError) as per_step:
            _per_step_absorption(system, cert, starts, signals, 1e-2, 20.0)
        assert str(caught.value) == str(per_step.value)
        assert str(caught.value).endswith(
            f"(signal 0, t={march.times[point + steps - 1]})")

    @pytest.mark.parametrize("columns", [1, 7])
    def test_recorded_states_independent_of_chunks(self, columns,
                                                   monkeypatch):
        # rows of signal 0 leave the guard at their own steps
        system = SwitchedSystem.from_matrices([np.array([[2.0, 0.3],
                                                         [0.0, 2.0]]),
                                               -np.eye(2)])
        starts = np.array([[3.0, 0.0], [1e-3, 0.2], [0.5, -0.5]])
        signals = [SwitchingSignal.constant(1, 20.0),
                   random_switching(2, 20.0, 0.5, 3)]
        wide, _ = integrate_batch(system, signals, starts, 1e-2, 20.0)
        monkeypatch.setattr(sim, "CHUNK_COLUMNS", columns)
        narrow, _ = integrate_batch(system, signals, starts, 1e-2, 20.0)
        assert [t.diverged for t in wide][:3] == [True] * 3
        for a, b in zip(wide, narrow):
            assert (a.diverged, a.diverged_at) == (b.diverged, b.diverged_at)
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.active, b.active)


class TestGrid:
    @staticmethod
    def _lists(horizon, h):
        """The grid built from Python lists, as sim._grid once did."""
        full = int(np.floor(horizon / h + 1e-9))
        remainder = horizon - full * h
        steps = [h] * full
        times = [k * h for k in range(full + 1)]
        if remainder > 1e-12 * max(1.0, horizon):
            steps.append(remainder)
            times.append(horizon)
        elif full == 0:
            steps.append(horizon)
            times.append(horizon)
        return np.array(steps), np.array(times)

    @pytest.mark.parametrize("h", [1e-3, 2e-3, 5e-3, 1e-2, 0.025, 0.05, 0.1])
    def test_bits_match_python_lists(self, h):
        remainders = 0
        for horizon in (100.0, 15.0, 1.0005, 2 * np.pi, 0.3 * h):
            steps, times = sim._grid(horizon, h)
            ref_steps, ref_times = self._lists(horizon, h)
            assert steps.tobytes() == ref_steps.tobytes()
            assert times.tobytes() == ref_times.tobytes()
            assert times[-1] == horizon and len(times) == len(steps) + 1
            remainders += steps[-1] != h
        assert remainders >= 2    # 0.3 h and at least one more


class TestIntegrateBatch:
    STARTS = np.array([[0.5, 0.5], [2.5, -1.0], [-2.0, 1.5], [1.0, 2.5]])

    @pytest.mark.parametrize("case", ["vdp_pair", "mixed_triple",
                                      "linear_pair", "cubic_3d_pair"])
    def test_rows_match_integrate_and_check_absorption(self, case, request):
        # integrate steps one start on floats, the batch on numpy blocks
        system = request.getfixturevalue(case)
        starts, V = self.STARTS, "x1^2 + 0.25*x1*x2 + 0.5*x2^2 + 0.01*x1^4"
        if system.dimension == 3:
            starts = np.column_stack([starts, [0.3, -1.0, 0.8, -0.5]])
            V += " + x3^2"
        cert = _certificate(system, V, 1.5)
        signals = [random_switching(system.n_subsystems, 2.0, 0.2, seed)
                   for seed in range(3)]
        trajectories, report = integrate_batch(system, signals, starts,
                                               2e-3, 2.0, cert)
        assert len(trajectories) == len(signals) * len(starts)
        for row, trajectory in enumerate(trajectories):
            signal, start = divmod(row, len(starts))
            alone = integrate(system, signals[signal], starts[start],
                              2e-3, 2.0)
            assert np.array_equal(trajectory.times, alone.times)
            assert np.array_equal(trajectory.active, alone.active)
            assert not trajectory.diverged
            # a batch rounds its products apart from a single column
            scale = np.linalg.norm(alone.states, axis=1)[:, None]
            assert np.all(np.abs(trajectory.states - alone.states)
                          <= 1e-13 * scale)
        # the absorption work of the batch is the same as on its own
        alone = check_absorption(system, cert, starts, signals, h=2e-3,
                                 horizon=2.0)
        assert report.not_entered == alone.not_entered
        for ours, theirs in zip(report.records, alone.records):
            assert np.array_equal(ours.x0, theirs.x0)
            assert (ours.signal_index, ours.first_entry_time,
                    ours.post_entry_max, ours.violated) == (
                theirs.signal_index, theirs.first_entry_time,
                theirs.post_entry_max, theirs.violated)

    def test_diverging_rows_truncated_others_run_on(self):
        # subsystem 1 grows, subsystem 2 decays: the rows of signal 0 leave
        # the guard at their own steps, the rows of signal 1 reach the
        # horizon
        system = SwitchedSystem.from_matrices([np.array([[2.0, 0.0],
                                                         [0.0, 2.0]]),
                                               -np.eye(2)])
        starts = np.array([[3.0, 0.0], [1e-3, 0.0]])
        signals = [SwitchingSignal.constant(1, 20.0),
                   SwitchingSignal(20.0, ((0.0, 2), (14.0, 1)))]
        trajectories, _ = integrate_batch(system, signals, starts, 1e-2, 20.0)
        ends = []
        for row, trajectory in enumerate(trajectories):
            signal, start = divmod(row, len(starts))
            alone = integrate(system, signals[signal], starts[start], 1e-2,
                              20.0)
            assert (trajectory.diverged, trajectory.diverged_at) == (
                alone.diverged, alone.diverged_at)
            assert np.array_equal(trajectory.times, alone.times)
            ends.append(trajectory.times[-1])
        assert [t.diverged for t in trajectories] == [True, True, False, False]
        assert ends[0] < ends[1] < 20.0 == ends[2] == ends[3]

        cert = _certificate(system, "x1^2 + x2^2", 1.0)
        with pytest.raises(CertificateContradictionError):
            integrate_batch(system, signals, starts, 1e-2, 20.0, cert)

    def test_march_ends_once_every_row_has_left(self, monkeypatch):
        # the batch loop and the loop of one start both stop at the step
        # where the last row leaves the guard
        calls = []
        for name in ("_steppers", "_scalar_steppers"):
            def counting(system, dts, real=getattr(sim, name)):
                return [lambda x, dt, step=step:
                        calls.append(dt) or step(x, dt)
                        for step in real(system, dts)]

            monkeypatch.setattr(sim, name, counting)
        system = SwitchedSystem.from_matrices([np.array([[2.0]])])
        signal = SwitchingSignal.constant(1, 1000.0)
        trajectory = integrate(system, signal, [1.0], 1e-2, 1000.0)
        assert trajectory.diverged
        assert len(calls) == len(trajectory.times) - 1 < 1500
        calls.clear()
        (batched,), _ = integrate_batch(system, [signal], np.array([[1.0]]),
                                        1e-2, 1000.0)
        assert len(calls) == len(trajectory.times) - 1
        assert np.array_equal(batched.times, trajectory.times)


def _reference_evaluator(polys, dimension):
    """The float evaluator before it was generated: it walks the exponent
    and coefficient tables at every call."""
    exps, coefs = exponent_tables(polys, dimension)
    used = np.flatnonzero(exps.any(axis=0)).tolist()
    tops = exps.max(axis=0, initial=0).tolist()
    powers = [(j, tops[j], exps[:, j].tolist()) for j in used]
    terms = [[(t, c) for t, c in enumerate(row) if c]
             for row in coefs.tolist()]
    ones = [1.0] * len(exps)

    def values(x):
        monomials = ones
        for j, top, column in powers:
            v = x[j]
            table = [1.0, v]
            for _ in range(top - 1):
                table.append(table[-1] * v)
            monomials = [m * table[e] for m, e in zip(monomials, column)]
        out = []
        for row in terms:
            acc = 0.0
            for t, c in row:
                acc += c * monomials[t]
            out.append(acc)
        return out

    return values


def _reference_linear_step(increments, x, dt):
    out = []
    for xi, row in zip(x, increments[dt]):
        acc = 0.0
        for d, v in zip(row, x):
            acc += d * v
        out.append(xi + acc)
    return out


def _reference_rk4_stages(field, x, dt):
    half = 0.5 * dt
    k1 = field(x)
    k2 = field([a + half * b for a, b in zip(x, k1)])
    k3 = field([a + half * b for a, b in zip(x, k2)])
    k4 = field([a + dt * b for a, b in zip(x, k3)])
    sixth = dt / 6.0
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


def _reference_steppers(system, dts):
    steppers = []
    for f in system.fields:
        if f.is_linear():
            steppers.append(functools.partial(_reference_linear_step, {
                dt: D.tolist() for dt, D in sim._increments(f, dts).items()}))
        else:
            steppers.append(functools.partial(
                _reference_rk4_stages,
                _reference_evaluator(f.components, f.dimension)))
    return steppers


def _assert_same_float_runs(monkeypatch, system, V, x0, h, horizon):
    """The greedy signal and the trajectory under it, and under a random
    signal, have the bits of the reference loops."""
    random = random_switching(system.n_subsystems, horizon, 0.3, 7)
    runs = []
    for reference in (False, True):
        with monkeypatch.context() as patch:
            if reference:
                patch.setattr(sim, "_scalar_evaluator", _reference_evaluator)
                patch.setattr(sim, "_scalar_steppers", _reference_steppers)
            greedy = adversarial_switching(system, V, x0, h, horizon)
            runs.append((greedy.switches, *(
                integrate(system, s, x0, h, horizon).states.tobytes()
                for s in (greedy, random))))
    assert runs[0] == runs[1]


class TestGeneratedFloatLoop:
    """The float loop runs generated code with the arithmetic of the loops
    that walked the tables, so its states and switch lists are the same
    bits."""

    @pytest.mark.parametrize("name", sorted(p.name for p in SYSTEMS.glob("*.sys")))
    @pytest.mark.parametrize("x0, horizon", [
        pytest.param([0.7, -1.2, 0.4], 3.0, id="on_grid"),
        pytest.param([0.7, -1.2, 0.4], 2.0005, id="off_grid_remainder"),
        pytest.param([0.0, -0.0, 0.0], 1.0, id="origin")])
    def test_bundled_systems(self, monkeypatch, name, x0, horizon):
        system = load_system(str(SYSTEMS / name))
        _assert_same_float_runs(monkeypatch, system, None,
                                x0[:system.dimension], 1e-3, horizon)

    def test_linear_pair_at_b1326(self, monkeypatch, linear_pair):
        _assert_same_float_runs(monkeypatch, linear_pair, None, [1.0, 0.0],
                                1e-3, 50.0)

    def test_vdp_with_degree_six_v(self, monkeypatch, vdp_pair,
                                   vdp_certificate):
        _assert_same_float_runs(monkeypatch, vdp_pair,
                                vdp_certificate.lyapunov, [-3.8, -9.5], 1e-3,
                                15.0)

    @pytest.mark.parametrize("n, terms", [(4, 1820), (5, 6188)])
    def test_dense_degree_12_polynomial(self, n, terms):
        # with its terms in one expression, the sum of 6188 terms nests too
        # deep to compile
        rng = np.random.default_rng(11)
        p = _dense_poly(rng, n, 12)
        assert len(p.terms) == terms
        generated = sim._scalar_evaluator([p], n)
        reference = _reference_evaluator([p], n)
        for x in rng.normal(size=(20, n)).tolist():
            assert (np.array(generated(x)).tobytes()
                    == np.array(reference(x)).tobytes())

    @pytest.mark.filterwarnings("error")
    def test_overflowing_one_step_matrix(self, monkeypatch):
        # D holds inf and nan; the first step leaves the guard
        system = SwitchedSystem(2, (_field("1e200*x1 + x2", "-x1"),))
        trajectory = integrate(system, SwitchingSignal.constant(1, 1.0),
                               [1.0, 0.0], 1e-3, 1.0)
        assert trajectory.diverged and trajectory.diverged_at == 0.001
        signal = adversarial_switching(system, None, [1.0, 0.0], 1e-3, 1.0)
        assert signal.switches == ((0.0, 1),)
        _assert_same_float_runs(monkeypatch, system, None, [1.0, 0.0], 1e-3,
                                1.0)


def _dense_poly(rng, n, degree):
    """Every monomial of total degree at most ``degree``, random coefficients."""
    monos = [m for m in np.ndindex(*(degree + 1,) * n) if sum(m) <= degree]
    return Polynomial(n, {m: float(rng.normal()) for m in monos})


def _assert_callers_agree(p, points):
    """evaluate_many and the simulation's evaluator sum the same monomial
    values in one order by two BLAS products, a matrix-vector and a matrix
    product; they agree to 1e-15 of the sum of |terms|."""
    by_poly = p.evaluate_many(points)
    by_sim = sim._evaluator([p], p.dimension)(points.T.copy())
    assert by_sim.shape == (1, len(points))
    absolute = Polynomial(p.dimension, {m: abs(c) for m, c in p.terms.items()})
    scale = absolute.evaluate_many(np.abs(points))
    assert np.all(np.abs(by_sim[0] - by_poly) <= 1e-15 * scale)


class TestEvaluationCallersAgree:
    @pytest.mark.parametrize("name", sorted(p.name for p in SYSTEMS.glob("*.sys")))
    def test_bundled_system_fields_and_v(self, name):
        system = load_system(str(SYSTEMS / name))
        rng = np.random.default_rng(17)
        points = rng.normal(scale=3.0, size=(500, system.dimension))
        _assert_callers_agree(_dense_poly(rng, system.dimension, 6), points)
        for field in system.fields:
            for component in field.components:
                _assert_callers_agree(component, points)

    @pytest.mark.parametrize("p", [
        Polynomial.constant(2, 3.5),
        parse_expression("x1^2*x3 - 2*x3^3 + x1 + 0.5", 3)],
        ids=["constant", "x2_absent"])
    def test_edge_polynomials(self, p):
        rng = np.random.default_rng(5)
        _assert_callers_agree(p, rng.normal(size=(40, p.dimension)))

    def test_zero_points(self):
        p = parse_expression("x1^3 - x1*x2 + 2", 2)
        assert p.evaluate_many(np.empty((0, 2))).shape == (0,)
        assert sim._evaluator([p], 2)(np.empty((2, 0))).shape == (1, 0)
