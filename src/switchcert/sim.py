"""Switched trajectory integration and empirical absorption checking.

Trajectories are integrated with the classical 4th-order Runge-Kutta method
on a fixed grid; switch times are snapped to the grid, which keeps runs
deterministic and makes segment concatenation exact.  A divergence guard at
state norm 1e12 separates falsification evidence from numerical failure.
The adversarial signal greedily maximises the worst-case derivative of a
given function V at each grid point; it is evidence of instability, never
proof, and never accepts a certificate.

``integrate``, ``adversarial_switching`` and ``check_absorption`` run on one
batched engine: states are contiguous (n, k) blocks, one column per start,
and each subsystem gets one RK4 stepper per call, a one-step matrix for a
linear field and the four stages for a polynomial one, all components
evaluated from one table of monomial values (``poly.MonomialKernel``).  A
batch is stepped in switch segments: between two steps where some signal
changes its index, the rows of each subsystem form one block.  A single
start is a batch of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .certify import (AbsorbingSetCertificate, SwitchedSystem, check_matches,
                      check_positive)
from .poly import MonomialKernel, Polynomial, lie_derivative

DIVERGENCE_GUARD = 1e12
RE_EXIT_TOLERANCE = 1e-3


class CertificateContradictionError(RuntimeError):
    """A trajectory diverged under a verified certificate."""


@dataclass(frozen=True)
class SwitchingSignal:
    """Piecewise-constant index schedule on [0, horizon].

    ``switches`` holds (time, index) pairs with strictly increasing times,
    starting at time 0.0 with the initial index; indices are 1-based.
    """

    horizon: float
    switches: tuple

    def __post_init__(self):
        sw = tuple((float(t), int(i)) for t, i in self.switches)
        object.__setattr__(self, "switches", sw)
        if not sw or sw[0][0] != 0.0:
            raise ValueError("signal must start with an index at time 0")
        times = [t for t, _ in sw]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("switch times must be strictly increasing")
        if any(i < 1 for _, i in sw):
            raise ValueError("subsystem indices are 1-based")

    @property
    def n_switches(self) -> int:
        return len(self.switches) - 1

    def index_at(self, t: float) -> int:
        active = self.switches[0][1]
        for time, idx in self.switches:
            if time <= t:
                active = idx
            else:
                break
        return active

    @classmethod
    def constant(cls, index: int, horizon: float) -> "SwitchingSignal":
        return cls(horizon, ((0.0, index),))


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step solution samples with the active index at each grid point."""

    times: np.ndarray
    states: np.ndarray
    active: np.ndarray
    diverged: bool = False
    diverged_at: float | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class AbsorptionRecord:
    x0: np.ndarray
    signal_index: int
    first_entry_time: float | None
    post_entry_max: float
    violated: bool


@dataclass
class AbsorptionReport:
    gamma: float
    re_exit_tolerance: float
    records: list
    not_entered: int

    @property
    def violations(self) -> int:
        return sum(1 for r in self.records if r.violated)

    @property
    def max_post_entry(self) -> float:
        return max((r.post_entry_max for r in self.records), default=-np.inf)


def _grid(horizon: float, h: float):
    """Step sizes and grid times: full h-steps plus one exact remainder step
    so the grid ends at the horizon."""
    check_positive(("step", h), ("horizon", horizon))
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


def _active_steps(signal: SwitchingSignal, n_points: int, h: float) -> np.ndarray:
    """Active subsystem index at each grid point, switch times snapped to
    multiples of h; of several switches snapped to one step the last wins."""
    steps = np.array([int(round(t / h)) for t, _ in signal.switches])
    indices = np.array([idx for _, idx in signal.switches], dtype=np.intp)
    return indices[np.searchsorted(steps, np.arange(n_points), side="right")
                   - 1]


def _segments(active: np.ndarray, n_steps: int):
    """(start, stop) step ranges over which no row of ``active`` (signals x
    grid points) changes its index; step k uses the index at grid point k."""
    changed = np.any(active[:, 1:n_steps] != active[:, :n_steps - 1], axis=0)
    bounds = [0, *(np.flatnonzero(changed) + 1).tolist(), n_steps]
    return list(zip(bounds, bounds[1:]))


def _check_indices(system: SwitchedSystem, signals) -> None:
    if any(i > system.n_subsystems for s in signals for _, i in s.switches):
        raise ValueError("signal index exceeds subsystem count")


def _evaluator(polys: Sequence[Polynomial], dimension: int):
    """Values (n_polys, k) of several polynomials at the points x (n, k):
    one product of the coefficient matrix with the values of all their
    monomials, summed in ascending (degree, exponent tuple) order."""
    monos = sorted({m for p in polys for m in p.terms},
                   key=lambda m: (sum(m), m))
    monomials = MonomialKernel(
        np.array(monos, dtype=np.intp).reshape(len(monos), dimension))
    coefs = np.array([[p.terms.get(m, 0.0) for m in monos]
                      for p in polys]).reshape(len(polys), len(monos))
    return lambda x: coefs @ monomials(x)


def _rk4_increment(A: np.ndarray, dt: float) -> np.ndarray:
    """D = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so that one RK4 step of
    x' = Ax is x <- M x with M = I + D.  The step is applied as x + D x:
    as in the four-stage step, only the small increment carries the
    rounding of the products."""
    hA = dt * A
    term = hA
    D = hA.copy()
    for j in range(2, 5):
        term = term @ hA / j
        D += term
    return D


def _steppers(system: SwitchedSystem, dts: np.ndarray):
    """One RK4 step per subsystem, x (n, k) -> x (n, k), for the step sizes
    of the grid: a one-step matrix per step size for linear fields, the
    four stages on one table of monomial values for polynomial ones."""
    steppers = []
    for f in system.fields:
        if f.is_linear():
            A = f.linear_matrix()
            increments = {dt: _rk4_increment(A, dt) for dt in set(dts.tolist())}
            steppers.append(lambda x, dt, D=increments: x + D[dt] @ x)
        else:
            steppers.append(functools.partial(
                _rk4_stages, _evaluator(f.components, f.dimension)))
    return steppers


def _rk4_stages(field, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = field(x)
    k2 = field(x + 0.5 * dt * k1)
    k3 = field(x + 0.5 * dt * k2)
    k4 = field(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _within_guard(x: np.ndarray) -> np.ndarray:
    """Per column of x (n, k): finite with norm at most DIVERGENCE_GUARD."""
    return (x * x).sum(axis=0) <= DIVERGENCE_GUARD ** 2


def integrate(system: SwitchedSystem, signal: SwitchingSignal,
              x0: Sequence[float], h: float, horizon: float) -> Trajectory:
    """RK4 on each constant-index segment of the snapped signal.

    Returns a truncated trajectory with the divergence flag set when the
    state norm passes the guard; that is evidence, not a failure.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dimension,):
        raise ValueError("initial state has wrong dimension")
    _check_indices(system, [signal])
    dts, times = _grid(horizon, h)
    active = _active_steps(signal, len(times), h)
    steppers = _steppers(system, dts)

    states = np.empty((len(times), system.dimension))
    states[0] = x0
    x = x0[:, None].copy()
    for k, dt in enumerate(dts):
        x = steppers[active[k] - 1](x, dt)
        states[k + 1] = x[:, 0]
        if not _within_guard(x)[0]:
            return Trajectory(times[:k + 2], states[:k + 2], active[:k + 2],
                              diverged=True, diverged_at=float(times[k + 1]))
    return Trajectory(times, states, active)


def random_switching(n_subsystems: int, horizon: float, mean_dwell: float,
                     seed: int) -> SwitchingSignal:
    """Exponential inter-switch gaps, uniform indices, deterministic per seed."""
    check_positive(("horizon", horizon), ("mean_dwell", mean_dwell))
    rng = np.random.default_rng(seed)
    switches = [(0.0, int(rng.integers(1, n_subsystems + 1)))]
    t = float(rng.exponential(mean_dwell))
    while t < horizon:
        switches.append((t, int(rng.integers(1, n_subsystems + 1))))
        t += float(rng.exponential(mean_dwell))
    return SwitchingSignal(horizon, tuple(switches))


def adversarial_switching(system: SwitchedSystem, V: Polynomial | None,
                          x0: Sequence[float], h: float,
                          horizon: float) -> SwitchingSignal:
    """Greedy signal maximising the derivative of V along the flow.

    At each grid point the subsystem with the largest grad(V) . f_i is
    selected, ties broken by the lowest index; V defaults to ||x||_2^2.
    """
    n = system.dimension
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError("initial state has wrong dimension")
    if V is None:
        V = Polynomial(n, {tuple(2 if k == j else 0 for k in range(n)): 1.0
                           for j in range(n)})
    rates = _evaluator([lie_derivative(V, f) for f in system.fields], n)
    dts, times = _grid(horizon, h)
    steppers = _steppers(system, dts)

    x = x0[:, None].copy()
    switches = []
    current = None
    for k, dt in enumerate(dts):
        choice = int(rates(x).argmax()) + 1
        if choice != current:
            switches.append((times[k], choice))
            current = choice
        x = steppers[choice - 1](x, dt)
        if not _within_guard(x)[0]:
            break
    return SwitchingSignal(horizon, tuple(switches))


def check_absorption(system: SwitchedSystem, cert: AbsorbingSetCertificate,
                     initial_states: np.ndarray,
                     signals: Sequence[SwitchingSignal], h: float = 1e-3,
                     horizon: float | None = None) -> AbsorptionReport:
    """Empirical absorption check of {V <= gamma} over a batch of starts.

    For every (x0, signal) pair the first entry time into the sublevel set
    is recorded and the post-entry excess of V over gamma is tracked; a
    re-exit beyond gamma*(1 + tolerance) is a violation.  Divergence under
    a verified certificate is a hard contradiction.
    """
    if cert.gamma is None:
        raise ValueError("certificate has no gamma level")
    check_matches(cert, system)
    X0 = np.atleast_2d(np.asarray(initial_states, dtype=float))
    if X0.shape[1] != system.dimension:
        raise ValueError("initial states have wrong dimension")
    if not signals:
        raise ValueError("no switching signals given")
    _check_indices(system, signals)
    V = _evaluator([cert.lyapunov], system.dimension)
    gamma = cert.gamma
    n_starts = len(X0)
    n_signals = len(signals)

    # one batch across all (signal, start) pairs; between the steps where
    # some signal switches, the rows of each subsystem are stepped together
    T = horizon if horizon is not None else max(s.horizon for s in signals)
    dts, times = _grid(T, h)
    active = np.stack([_active_steps(s, len(times), h) for s in signals])
    signal_of_row = np.repeat(np.arange(n_signals), n_starts)
    steppers = _steppers(system, dts)

    x = np.tile(X0, (n_signals, 1)).T.copy()
    v = V(x)[0]
    entered = v <= gamma
    entry_time = np.where(entered, 0.0, np.nan)
    post_max = np.full(len(v), -np.inf)

    for start, stop in _segments(active, len(dts)):
        index_of_row = active[signal_of_row, start]
        blocks = [(steppers[idx - 1], np.flatnonzero(index_of_row == idx))
                  for idx in np.unique(index_of_row)]
        states = [x[:, rows] for _, rows in blocks]
        for k in range(start, stop):
            for b, (step, _) in enumerate(blocks):
                states[b] = step(states[b], dts[k])
            bad = []
            for (_, rows), xb in zip(blocks, states):
                ok = _within_guard(xb)
                if not ok.all():
                    bad.append(rows[np.argmin(ok)])
            if bad:
                raise CertificateContradictionError(
                    f"trajectory diverged under a certified system "
                    f"(signal {signal_of_row[min(bad)]}, t={times[k + 1]})")
            for (_, rows), xb in zip(blocks, states):
                v[rows] = V(xb)[0]
            newly = (~entered) & (v <= gamma)
            entry_time[newly] = times[k + 1]
            entered |= newly
            post_max = np.where(entered, np.maximum(post_max, v - gamma),
                                post_max)
        for (_, rows), xb in zip(blocks, states):
            x[:, rows] = xb

    records = []
    not_entered = 0
    for row in range(len(v)):
        s_idx = int(signal_of_row[row])
        start = X0[row % n_starts]
        if not entered[row]:
            not_entered += 1
            records.append(AbsorptionRecord(start, s_idx, None, -np.inf, False))
        else:
            excess = float(post_max[row])
            records.append(AbsorptionRecord(
                start, s_idx, float(entry_time[row]), excess,
                excess > gamma * RE_EXIT_TOLERANCE))
    return AbsorptionReport(gamma, RE_EXIT_TOLERANCE, records, not_entered)
