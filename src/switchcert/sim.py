"""Switched trajectory integration and empirical absorption checking.

Trajectories are integrated with the classical 4th-order Runge-Kutta method
on a fixed grid; switch times are snapped to the grid, which keeps runs
deterministic and makes segment concatenation exact.  A divergence guard at
state norm 1e12 separates falsification evidence from numerical failure.
The adversarial signal greedily maximises the worst-case derivative of a
given function V at each grid point; it is evidence of instability, never
proof, and never accepts a certificate.

Two loops step states, one per kind of caller.  ``_March`` steps batches
under given signals: ``check_absorption`` tracks V over a batch and
``integrate_batch`` also records it.  States are contiguous (n, k) blocks,
one column per (signal, start) row, and each subsystem gets one RK4
stepper per march, a one-step matrix for a linear field and the four
stages for a polynomial one, all components evaluated from the values of
their monomials (``poly.monomial_kernel``).  A batch is stepped in switch
segments: between two steps where some signal changes its index, the rows
of each subsystem form one block.

Observers get each block's states in chunks of consecutive steps within a
segment, at most CHUNK_COLUMNS (steps x rows) per block.  So the
absorption check forms V's monomials and updates its entry times and
maxima once per chunk, not once per step: on a batch of about a hundred
rows numpy's per-call cost, not the arithmetic, sets the time.  The sum
with V's coefficients stays one BLAS product per step, which keeps the
bits of a step-by-step march.  The cap bounds the arrays of a chunk.

``_march_one`` steps a single start on Python floats, where numpy's
per-call cost would exceed the arithmetic.  Its steps and the greedy
signal's rates are Python source generated from the tables of
``poly.exponent_tables`` and compiled once per call: straight-line code
with the batch's one-step matrices and the monomials of
``poly.monomial_steps``, the rule that ``poly.monomial_kernel`` compiles
for blocks, each sum in ascending (degree, exponent) order, so no table
is walked while stepping.  ``integrate`` drives it with the snapped
signal and ``adversarial_switching`` with the greedy choice at each grid
point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .certify import (AbsorbingSetCertificate, SwitchedSystem, check_matches,
                      check_positive)
from .poly import (Polynomial, compile_function, exponent_tables,
                   lie_derivative, monomial_kernel, monomial_steps)

DIVERGENCE_GUARD = 1e12
RE_EXIT_TOLERANCE = 1e-3
_BLOCK_GUARD = 0.5 * DIVERGENCE_GUARD ** 2
# (steps x rows) columns of the largest block that one chunk holds
CHUNK_COLUMNS = 1024


class CertificateContradictionError(RuntimeError):
    """A trajectory diverged under a verified certificate."""


@dataclass(frozen=True)
class SwitchingSignal:
    """Piecewise-constant index schedule on [0, horizon].

    ``switches`` holds (time, index) pairs with finite, strictly increasing
    times up to the horizon, starting at time 0.0 with the initial index;
    indices are 1-based.  The horizon is finite and positive.
    """

    horizon: float
    switches: tuple

    def __post_init__(self):
        check_positive(("horizon", self.horizon))
        sw = tuple((float(t), int(i)) for t, i in self.switches)
        object.__setattr__(self, "switches", sw)
        if not all(math.isfinite(t) for t, _ in sw):
            raise ValueError("switches must have finite times")
        if any(t > self.horizon for t, _ in sw):
            raise ValueError("switch times must not exceed the horizon")
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
    extra = int(remainder > 1e-12 * max(1.0, horizon) or full == 0)
    steps = np.full(full + extra, h)
    times = np.arange(full + 1 + extra) * h
    if extra:
        steps[-1] = remainder
        times[-1] = horizon
    return steps, times


def _active_steps(signal: SwitchingSignal, n_points: int, h: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Active subsystem index at each grid point, switch times snapped to
    multiples of h; of several switches snapped to one step the last wins.
    Written to ``out`` when given."""
    steps = np.array([int(round(t / h)) for t, _ in signal.switches])
    indices = np.array([idx for _, idx in signal.switches], dtype=np.intp)
    at = np.searchsorted(steps, np.arange(n_points), side="right")
    at -= 1
    return np.take(indices, at, out=out)


def _segments(active: np.ndarray, n_steps: int):
    """(start, stop) step ranges over which no row of ``active`` (signals x
    grid points) changes its index; step k uses the index at grid point k."""
    changed = np.any(active[:, 1:n_steps] != active[:, :n_steps - 1], axis=0)
    bounds = [0, *(np.flatnonzero(changed) + 1).tolist(), n_steps]
    return list(zip(bounds, bounds[1:]))


def _check_signals(system: SwitchedSystem, signals, horizon: float) -> None:
    """Indices within the system's, and the horizon (``_grid`` checked it)
    within every signal's: a signal says nothing past its own."""
    if any(i > system.n_subsystems for s in signals for _, i in s.switches):
        raise ValueError("signal index exceeds subsystem count")
    shortest = min((s.horizon for s in signals), default=horizon)
    if horizon > shortest:
        raise ValueError(f"horizon {horizon:g} exceeds the horizon "
                         f"{shortest:g} of a switching signal")


def _evaluator(polys: Sequence[Polynomial], dimension: int):
    """Values (n_polys, k) of several polynomials at the points x (n, k):
    one product of the coefficient matrix with the values of all their
    monomials, summed in ascending (degree, exponent tuple) order."""
    exps, coefs = exponent_tables(polys, dimension)
    monomials = monomial_kernel(exps)
    return lambda x: coefs @ monomials(x)


# terms per statement of a generated sum: one expression of a few thousand
# terms nests too deep for the compiler
_SUM_TERMS = 32


def _names(prefix: str, count: int) -> list:
    return [f"{prefix}{i}" for i in range(count)]


def _literal(value: float, constants: dict) -> str:
    """Source text of a float constant: its repr, which round-trips every
    finite float and the sign of zero, or a name bound to it in
    ``constants`` for inf and nan, whose reprs are not Python literals."""
    if math.isfinite(value):
        return repr(value)
    name = f"_c{len(constants)}"
    constants[name] = value
    return name


def _term(c: float, factor: str, constants: dict) -> str:
    """c * factor, or ``factor`` alone when c is 1.0 and c alone when the
    factor is empty (a constant monomial): products with 1.0 are exact."""
    if not factor:
        return _literal(c, constants)
    return factor if c == 1.0 else f"{_literal(c, constants)} * {factor}"


def _sum_lines(target: str, terms: list) -> list:
    """Statements that set ``target`` to 0.0 + terms[0] + terms[1] + ...,
    added in that order."""
    lines, acc = [], "0.0"
    for i in range(0, len(terms), _SUM_TERMS):
        lines.append(f"{target} = "
                     + " + ".join([acc, *terms[i:i + _SUM_TERMS]]))
        acc = target
    return lines or [f"{target} = 0.0"]


def _polynomial_lines(exps: np.ndarray, coefs: np.ndarray, inputs: list,
                      outputs: list, constants: dict) -> list:
    """Statements that set each name in ``outputs`` to the value of one row
    of ``exponent_tables``' coefficients at the variables named ``inputs``,
    by the arithmetic of ``_evaluator`` on one column: the monomials of
    ``monomial_steps``, each value 0.0 plus its terms of nonzero
    coefficient in ascending (degree, exponent tuple) order."""
    steps, factors = monomial_steps(exps, inputs)
    lines = [f"{power} = {lower} * {x}" for power, lower, x in steps]
    monomials = [f"({' * '.join(names)})" if len(names) > 1
                 else "".join(names) for names in factors]
    for target, row in zip(outputs, coefs.tolist()):
        lines += _sum_lines(target, [_term(c, m, constants)
                                     for c, m in zip(row, monomials) if c])
    return lines


def _scalar_evaluator(polys: Sequence[Polynomial], dimension: int):
    """Values of several polynomials at one point x, a list of floats, by
    the arithmetic of ``_evaluator`` on one column, as generated code."""
    exps, coefs = exponent_tables(polys, dimension)
    xs, values, constants = _names("x", dimension), _names("v", len(polys)), {}
    return compile_function("x", [
        f"{', '.join(xs)}, = x",
        *_polynomial_lines(exps, coefs, xs, values, constants),
        f"return [{', '.join(values)}]"], constants)


def _rk4_increment(A: np.ndarray, dt: float) -> np.ndarray:
    """D = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so that one RK4 step of
    x' = Ax is x <- M x with M = I + D.  The step is applied as x + D x:
    as in the four-stage step, only the small increment carries the
    rounding of the products.  A D that overflows is the evidence of a
    divergence at the first step, so its overflow warns nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        hA = dt * A
        term = hA
        D = hA.copy()
        for j in range(2, 5):
            term = term @ hA / j
            D += term
    return D


def _increments(field, dts: np.ndarray) -> dict:
    """The RK4 increment matrix D of a linear field for each step size."""
    A = field.linear_matrix()
    return {dt: _rk4_increment(A, dt) for dt in set(dts.tolist())}


def _steppers(system: SwitchedSystem, dts: np.ndarray):
    """One RK4 step per subsystem, x (n, k) -> x (n, k), for the step sizes
    of the grid: a one-step matrix per step size for linear fields, the
    four stages on one table of monomial values for polynomial ones."""
    steppers = []
    for f in system.fields:
        if f.is_linear():
            steppers.append(lambda x, dt, D=_increments(f, dts): x + D[dt] @ x)
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


def _scalar_steppers(system: SwitchedSystem, dts: np.ndarray):
    """The steps of ``_steppers`` for one state, a list of floats, as
    generated code with the same arithmetic: x_i + (0.0 + sum_j D_ij x_j)
    with the one-step matrix of the step size for linear fields, the four
    stages with the field's values inline for polynomial ones."""
    return [_generated_linear_step(_increments(f, dts), f.dimension)
            if f.is_linear() else _generated_rk4_step(f)
            for f in system.fields]


def _generated_linear_step(increments: dict, dimension: int):
    xs, sums, constants = _names("x", dimension), _names("z", dimension), {}
    lines = [f"{', '.join(xs)}, = x"]
    for dt, D in increments.items():
        branch = [line for target, row in zip(sums, D.tolist())
                  for line in _sum_lines(target, [
                      _term(d, x, constants) for d, x in zip(row, xs)])]
        branch.append("return [" + ", ".join(
            f"{x} + {z}" for x, z in zip(xs, sums)) + "]")
        lines += [f"if dt == {_literal(dt, constants)}:",
                  *("    " + line for line in branch)]
    lines.append("raise KeyError(dt)")
    return compile_function("x, dt", lines, constants)


def _generated_rk4_step(field):
    n, constants = field.dimension, {}
    exps, coefs = exponent_tables(field.components, n)
    xs, ys = _names("x", n), _names("y", n)
    k = [_names(f"k{stage}_", n) for stage in range(1, 5)]
    lines = [f"{', '.join(xs)}, = x", "half = 0.5 * dt",
             *_polynomial_lines(exps, coefs, xs, k[0], constants)]
    for scale, slopes, nxt in zip(("half", "half", "dt"), k, k[1:]):
        lines += [f"{y} = {x} + {scale} * {s}"
                  for y, x, s in zip(ys, xs, slopes)]
        lines += _polynomial_lines(exps, coefs, ys, nxt, constants)
    lines += ["sixth = dt / 6.0", "return [" + ", ".join(
        f"{x} + sixth * ({a} + 2.0 * {b} + 2.0 * {c} + {d})"
        for x, a, b, c, d in zip(xs, *k)) + "]"]
    return compile_function("x, dt", lines, constants)


def _within_guard(x: np.ndarray) -> np.ndarray:
    """Per column of x (n, k): finite with norm at most DIVERGENCE_GUARD."""
    return (x * x).sum(axis=0) <= DIVERGENCE_GUARD ** 2


class _March:
    """The loop that steps batches of states under given signals.

    Rows are (signal, start) pairs in signal-major order: row r follows
    signal r // n_starts from start r % n_starts.  ``run`` steps every row
    to the horizon.  Between two steps where some signal switches, the rows
    of each subsystem form one block, and the march hands each observer its
    blocks' states in chunks of consecutive steps: the first grid point of
    the chunk, the (rows, states) blocks with states (n, steps, rows), and
    the rows that left the divergence guard.  A chunk ends at the end of a
    switch segment, after ``max(1, CHUNK_COLUMNS // rows of the largest
    block)`` steps, or at the step where a row leaves the guard.  Such a
    row is handed over with its failing state as the last step of the chunk
    and then dropped; the march ends once no row is left.
    """

    def __init__(self, system: SwitchedSystem, signals, starts: np.ndarray,
                 h: float, horizon: float):
        self.dts, self.times = _grid(horizon, h)
        _check_signals(system, signals, horizon)
        # filled row by row: a stack of per-signal rows doubles the peak
        self.active = np.empty((len(signals), len(self.times)),
                               dtype=np.intp)
        for signal, row in zip(signals, self.active):
            _active_steps(signal, len(self.times), h, out=row)
        self.signal_of_row = np.repeat(np.arange(len(signals)), len(starts))
        self.x0 = np.tile(starts, (len(signals), 1)).T.copy()
        # grid point at which each row left the guard, -1 while it has not
        self.left_at = np.full(self.x0.shape[1], -1)
        self.steppers = _steppers(system, self.dts)

    def run(self, *observers) -> None:
        x = self.x0.copy()
        live = np.ones(x.shape[1], dtype=bool)
        for start, stop in _segments(self.active, len(self.dts)):
            index_of_row = self.active[self.signal_of_row, start]
            indices = np.unique(index_of_row[live])
            blocks = [np.flatnonzero(live & (index_of_row == idx))
                      for idx in indices]
            steps = [self.steppers[idx - 1] for idx in indices]
            states = [x[:, rows] for rows in blocks]
            width = max(1, CHUNK_COLUMNS // max(map(len, blocks)))
            k = start
            while k < stop:
                chunk, inside = self._chunk(steps, states, k,
                                            min(k + width, stop))
                left = [row for rows, ok in zip(blocks, inside)
                        if ok is not None for row in rows[~ok].tolist()]
                for observe in observers:
                    observe(k + 1, list(zip(blocks, chunk)), left)
                k += chunk[0].shape[1]
                if left:
                    self.left_at[left] = k
                    live[left] = False
                    for b, ok in enumerate(inside):
                        if ok is not None:
                            blocks[b] = blocks[b][ok]
                            states[b] = states[b][:, ok]
                    kept = [b for b, rows in enumerate(blocks) if len(rows)]
                    blocks, steps, states = ([seq[b] for b in kept]
                                             for seq in (blocks, steps, states))
                    if not blocks:
                        return
            for rows, xb in zip(blocks, states):
                x[:, rows] = xb

    def _chunk(self, steps, states, k, end):
        """Steps each block from step k up to ``end``, or through the first
        step at which a row leaves the guard, and leaves the last states in
        ``states``.  Returns each block's states (n, steps, rows) and, per
        block, None or, when some of its rows left, its rows within the
        guard (a boolean mask)."""
        chunk = [np.empty((len(xb), end - k, xb.shape[1])) for xb in states]
        inside = [None] * len(steps)
        leaving = False
        for j in range(k, end):
            for b, step in enumerate(steps):
                xb = states[b] = step(states[b], self.dts[j])
                chunk[b][:, j - k] = xb
                # the sum of squares over a block bounds each column's, so
                # only a block within a factor 2 of the guard (or not
                # finite) needs the column check
                if (xb * xb).sum() <= _BLOCK_GUARD:
                    continue
                ok = _within_guard(xb)
                if not ok.all():
                    inside[b], leaving = ok, True
            if leaving:
                chunk = [xb[:, :j + 1 - k] for xb in chunk]
                break
        return chunk, inside


def _march_one(system: SwitchedSystem, start: np.ndarray, dts: np.ndarray,
               index_at) -> tuple:
    """The loop that steps a single start on Python floats.

    At grid point k, ``index_at(k, x)`` names the subsystem that steps the
    state x.  Returns the states (points, n), written up to the grid point
    at which the state left the divergence guard, and that point, or None
    when the state reached the horizon.
    """
    steppers = _scalar_steppers(system, dts)
    states = np.empty((len(dts) + 1, len(start)))
    states[0] = start
    x = start.tolist()
    guard = DIVERGENCE_GUARD ** 2
    # memoryviews read and write Python floats without a list of them per
    # grid point, and cost less than numpy's scalars and row assignment
    flat, at = memoryview(states.reshape(-1)), len(x)
    for k, dt in enumerate(memoryview(dts)):
        x = steppers[index_at(k, x) - 1](x, dt)
        norm = 0.0
        for v in x:
            flat[at] = v
            at += 1
            norm += v * v
        if not norm <= guard:
            return states, k + 1
    return states, None


class _Recorder:
    """Chunk work of a recording run: the states of every row at every grid
    point, (points, n, rows), 8 * n bytes per row and grid point."""

    def __init__(self, march: _March):
        self.march = march
        self.states = np.empty((len(march.times), *march.x0.shape))
        self.states[0] = march.x0

    def __call__(self, point, blocks, left) -> None:
        steps = blocks[0][1].shape[1]
        window = self.states[point:point + steps]
        if len(blocks) == 1 and len(blocks[0][0]) == window.shape[2]:
            window[...] = blocks[0][1].transpose(1, 0, 2)   # every row
            return
        for rows, xb in blocks:
            window[:, :, rows] = xb.transpose(1, 0, 2)

    def trajectories(self) -> list:
        """One Trajectory per row, truncated at the grid point where the
        row left the guard."""
        march = self.march
        out = []
        for row, left in enumerate(march.left_at.tolist()):
            end = left + 1 if left >= 0 else len(march.times)
            out.append(Trajectory(
                march.times[:end], self.states[:end, :, row],
                march.active[march.signal_of_row[row], :end],
                diverged=left >= 0,
                diverged_at=float(march.times[left]) if left >= 0 else None))
        return out


class _Absorption:
    """Chunk work of the absorption check: V on every block, the first
    entry time into {V <= gamma} and the excess of V over gamma from the
    entry on.  A row that leaves the guard contradicts the certificate, so
    every chunk that goes on holds every row."""

    def __init__(self, cert: AbsorbingSetCertificate, march: _March):
        exps, self.coefs = exponent_tables([cert.lyapunov], cert.dimension)
        self.monomials = monomial_kernel(exps)
        self.gamma = cert.gamma
        self.march = march
        self.entered = (self.coefs @ self.monomials(march.x0))[0] <= self.gamma
        self.entry_time = np.where(self.entered, 0.0, np.nan)
        self.post_max = np.full(len(self.entered), -np.inf)
        self.all_entered = bool(self.entered.all())

    def lyapunov(self, xb: np.ndarray) -> np.ndarray:
        """V at the states (n, steps, rows) of one block, (steps, rows).

        The monomials of the whole chunk come from one kernel call; the sum
        with the coefficients is one product per step, because BLAS rounds
        a column by its place in the product: a product as wide as the
        block gives every value the bits of a step-by-step march."""
        n, steps, rows = xb.shape
        monomials = self.monomials(xb.reshape(n, steps * rows))
        out = np.empty((steps, rows))
        for j in range(steps):
            np.matmul(self.coefs, monomials[:, j * rows:(j + 1) * rows],
                      out=out[j:j + 1])
        return out

    def __call__(self, point, blocks, left) -> None:
        steps = blocks[0][1].shape[1]
        if left:
            raise CertificateContradictionError(
                f"trajectory diverged under a certified system "
                f"(signal {self.march.signal_of_row[min(left)]}, "
                f"t={self.march.times[point + steps - 1]})")
        v = np.empty((steps, len(self.entered)))
        for rows, xb in blocks:
            v[:, rows] = self.lyapunov(xb)
        if not self.all_entered:
            # from the entry step on, per row
            inside = np.logical_or.accumulate(v <= self.gamma, axis=0)
            inside |= self.entered
            newly = inside[-1] & ~self.entered
            if newly.any():
                first = inside[:, newly].argmax(axis=0)
                self.entry_time[newly] = self.march.times[point + first]
                self.entered = inside[-1].copy()
                self.all_entered = bool(self.entered.all())
            v = np.where(inside, v, -np.inf)
        # max(V) - gamma is the max of V - gamma: rounding is monotone
        np.maximum(self.post_max, v.max(axis=0) - self.gamma,
                   out=self.post_max)

    def report(self, starts: np.ndarray) -> AbsorptionReport:
        records = []
        for row, s_idx in enumerate(self.march.signal_of_row.tolist()):
            start = starts[row % len(starts)]
            if not self.entered[row]:
                records.append(
                    AbsorptionRecord(start, s_idx, None, -np.inf, False))
            else:
                excess = float(self.post_max[row])
                records.append(AbsorptionRecord(
                    start, s_idx, float(self.entry_time[row]), excess,
                    excess > self.gamma * RE_EXIT_TOLERANCE))
        not_entered = int(np.count_nonzero(~self.entered))
        return AbsorptionReport(self.gamma, records, not_entered)


def check_starts(system: SwitchedSystem, initial_states) -> np.ndarray:
    """The starts as rows (k, n), each of the system's dimension, finite
    and with norm at most DIVERGENCE_GUARD, else a ValueError: the march
    could not tell a start beyond the guard from a divergence."""
    starts = np.atleast_2d(np.asarray(initial_states, dtype=float))
    if starts.ndim != 2 or starts.shape[1] != system.dimension:
        raise ValueError("initial states have wrong dimension")
    with np.errstate(over="ignore"):
        outside = ~_within_guard(starts.T)
    if outside.any():
        raise ValueError(
            f"initial state {starts[outside.argmax()].tolist()} must be "
            f"finite with norm at most {DIVERGENCE_GUARD:g}")
    return starts


def _batch_starts(system, cert, initial_states, signals) -> np.ndarray:
    """The starts as rows (k, n), after the checks shared by the batch
    entry points."""
    if cert is not None:
        if cert.gamma is None:
            raise ValueError("certificate has no gamma level")
        check_matches(cert, system)
    starts = check_starts(system, initial_states)
    if not signals:
        raise ValueError("no switching signals given")
    return starts


def integrate(system: SwitchedSystem, signal: SwitchingSignal,
              x0: Sequence[float], h: float, horizon: float) -> Trajectory:
    """RK4 on each constant-index segment of the snapped signal.

    Returns a truncated trajectory with the divergence flag set when the
    state norm passes the guard; that is evidence, not a failure.
    """
    start = check_starts(system, [x0])[0]
    dts, times = _grid(horizon, h)
    _check_signals(system, [signal], horizon)
    active = _active_steps(signal, len(times), h)
    indices = memoryview(active)
    states, left = _march_one(system, start, dts, lambda k, x: indices[k])
    if left is None:
        return Trajectory(times, states, active)
    end = left + 1
    return Trajectory(times[:end], states[:end], active[:end], diverged=True,
                      diverged_at=float(times[left]))


def integrate_batch(system: SwitchedSystem,
                    signals: Sequence[SwitchingSignal],
                    initial_states: np.ndarray, h: float, horizon: float,
                    cert: AbsorbingSetCertificate | None = None) -> tuple:
    """Every (signal, start) pair integrated once, in one batch.

    Returns the trajectories in signal-major order (row r follows signal
    r // len(initial_states)) and, when a certificate is given, the
    ``check_absorption`` report of the same batch, else None.  A trajectory
    that passes the guard is truncated there; under a certificate that
    raises CertificateContradictionError instead.
    """
    starts = _batch_starts(system, cert, initial_states, signals)
    march = _March(system, signals, starts, h, horizon)
    recorder = _Recorder(march)
    if cert is None:
        march.run(recorder)
        return recorder.trajectories(), None
    absorption = _Absorption(cert, march)
    march.run(recorder, absorption)
    return recorder.trajectories(), absorption.report(starts)


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
    start = check_starts(system, [x0])[0]
    if V is None:
        V = Polynomial(n, {tuple(2 if k == j else 0 for k in range(n)): 1.0
                           for j in range(n)})
    rates = _scalar_evaluator([lie_derivative(V, f) for f in system.fields], n)
    dts, times = _grid(horizon, h)
    switches = []

    def greediest(k, x):
        r = rates(x)
        choice = r.index(max(r)) + 1    # the first of equal rates
        if not switches or choice != switches[-1][1]:
            switches.append((times[k], choice))
        return choice

    _march_one(system, start, dts, greediest)
    return SwitchingSignal(horizon, tuple(switches))


def check_absorption(system: SwitchedSystem, cert: AbsorbingSetCertificate,
                     initial_states: np.ndarray,
                     signals: Sequence[SwitchingSignal], h: float = 1e-3,
                     horizon: float | None = None) -> AbsorptionReport:
    """Empirical absorption check of {V <= gamma} over a batch of starts.

    For every (x0, signal) pair the first entry time into the sublevel set
    is recorded and the post-entry excess of V over gamma is tracked; a
    re-exit beyond gamma*(1 + tolerance) is a violation.  Divergence under
    a verified certificate is a hard contradiction.  The horizon defaults
    to the longest signal's: mixed horizons need one, at most the shortest.
    """
    starts = _batch_starts(system, cert, initial_states, signals)
    T = horizon if horizon is not None else max(s.horizon for s in signals)
    march = _March(system, signals, starts, h, T)
    absorption = _Absorption(cert, march)
    march.run(absorption)
    return absorption.report(starts)
