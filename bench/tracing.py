"""Span tracing of switchcert's public functions, from outside the package.

Each traced function is replaced by a wrapper at every module attribute
that holds it, because several modules import functions by name
(``certify`` imports ``solve`` and ``encode``, ``sim`` imports
``evaluate_exponent_form``, ``sosprog`` imports ``lie_derivative``).  A
wrapper records one span: name, start, end, parent span and the call's
arguments and result, which the layer metrics read after the pass.  Spans
stay in memory until ``Tracer.write`` saves them.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

# module -> public functions traced in it; the span name is "module.function"
TRACED = {
    "poly": ("evaluate_exponent_form", "lie_derivative", "parse_expression",
             "poly_to_text"),
    "sosprog": ("encode", "decode", "gram_expand"),
    "sdp": ("solve",),
    "certify": ("escalate", "tighten_beta", "find_absorbing_lyapunov",
                "find_common_lyapunov", "minimize_gamma", "cqlf_bisection",
                "verify_certificate", "classify"),
    "sim": ("integrate", "random_switching", "adversarial_switching",
            "check_absorption"),
    "cli": ("load_system", "parse_system_text", "parse_certificate_text",
            "certificate_to_text"),
}

# spans whose arguments and result the layer metrics need
_KEEP_CALL = {"sosprog.encode", "sdp.solve", "sim.integrate",
              "sim.adversarial_switching", "sim.check_absorption"}


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent, phase, call]
        self._stack = []
        self._patched = []    # (module, attribute, original)
        self.phase = "setup"

    def install(self):
        from switchcert import certify, cli, poly, sdp, sim, sosprog
        import switchcert
        modules = {"poly": poly, "sosprog": sosprog, "sdp": sdp,
                   "certify": certify, "sim": sim, "cli": cli}
        holders = list(modules.values()) + [switchcert]
        for mod_name, functions in TRACED.items():
            for fn_name in functions:
                original = getattr(modules[mod_name], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep = name in _KEEP_CALL
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase,
                    None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                span[5] = (args, kwargs, result)
            return result

        return traced

    def write(self, path):
        """Save the spans as arrays: names, start, end, parent, phase."""
        names = sorted({s[0] for s in self.spans})
        phases = sorted({s[4] for s in self.spans})
        name_id = {n: k for k, n in enumerate(names)}
        phase_id = {p: k for k, p in enumerate(phases)}
        np.savez_compressed(
            path,
            names=np.array(names), phases=np.array(phases),
            name=np.array([name_id[s[0]] for s in self.spans], dtype=np.int16),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            phase=np.array([phase_id[s[4]] for s in self.spans],
                           dtype=np.int16))


def _grid_steps(horizon, h):
    """Number of RK4 steps on [0, horizon]: full h-steps plus one remainder."""
    full = int(np.floor(horizon / h + 1e-9))
    remainder = horizon - full * h
    return full + (1 if remainder > 1e-12 * max(1.0, horizon) or full == 0
                   else 0)


def _problem_sizes(problem):
    """(m, nonzero constraint entries, m * sum of squared block sizes)."""
    nnz = 0
    for entries in problem.entries:
        for ent in entries:
            nnz += int(np.sum(np.where(ent.rows != ent.cols, 2, 1)))
    nnz += sum(len(idx) for idx, _ in problem.free_rows)
    return problem.m, nnz, problem.m * sum(s * s for s in problem.block_sizes)


def _arg(call, position, keyword, default=None):
    args, kwargs, _ = call
    return args[position] if len(args) > position \
        else kwargs.get(keyword, default)


# top-level certification calls: one certificate (or one verdict) each
_CERTIFY_CALLS = {"certify.escalate", "certify.cqlf_bisection",
                  "certify.find_absorbing_lyapunov", "certify.minimize_gamma"}


def layer_metrics(spans, phases):
    """Per-layer metrics over the spans of the given phases."""
    index = [k for k, s in enumerate(spans) if s[4] in phases]
    chosen = set(index)
    child_time = {}
    for k in index:
        parent = spans[k][3]
        if parent in chosen:
            child_time[parent] = child_time.get(parent, 0.0) \
                + spans[k][2] - spans[k][1]

    def ancestors(k):
        parent = spans[k][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    calls, module_self = {}, {}
    for k in index:
        name, start, end = spans[k][:3]
        calls[name] = calls.get(name, 0) + 1
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) \
            + (end - start) - child_time.get(k, 0.0)

    def n(name):
        return calls.get(name, 0)

    def t(*names):
        """Wall time covered by spans of the given names, nested ones once."""
        wanted = set(names)
        return sum(spans[k][2] - spans[k][1] for k in index
                   if spans[k][0] in wanted
                   and wanted.isdisjoint(ancestors(k)))

    rows = nnz = dense = 0
    max_rows = 0
    iterations = infeasible = failed = verify_solves = certify_solves = 0
    state_steps = 0
    for k in index:
        name, call = spans[k][0], spans[k][5]
        if name == "sosprog.encode":
            m, z, d = _problem_sizes(call[2].problem)
            rows, nnz, dense = rows + m, nnz + z, dense + d
            max_rows = max(max_rows, m)
        elif name == "sdp.solve":
            solution = call[2]
            iterations += solution.iterations
            infeasible += solution.status == "infeasible"
            failed += solution.status == "numerical-failure"
            above = set(ancestors(k))
            verify_solves += "certify.verify_certificate" in above
            certify_solves += not above.isdisjoint(_CERTIFY_CALLS)
        elif name in ("sim.integrate", "sim.adversarial_switching"):
            state_steps += _grid_steps(_arg(call, 4, "horizon"),
                                       _arg(call, 3, "h"))
        elif name == "sim.check_absorption":
            starts = np.atleast_2d(_arg(call, 2, "initial_states"))
            signals = _arg(call, 3, "signals")
            horizon = _arg(call, 5, "horizon") \
                or max(s.horizon for s in signals)
            state_steps += len(starts) * len(signals) \
                * _grid_steps(horizon, _arg(call, 4, "h", 1e-3))

    certificates = sum(1 for k in index if spans[k][0] in _CERTIFY_CALLS
                       and not _CERTIFY_CALLS.intersection(ancestors(k)))
    solve_calls = n("sdp.solve")
    sim_busy = t("sim.integrate", "sim.adversarial_switching",
                 "sim.check_absorption")
    return {
        "poly.evaluate_calls": (n("poly.evaluate_exponent_form"), "count"),
        "poly.evaluate_s": (t("poly.evaluate_exponent_form"), "s"),
        "poly.lie_derivative_calls": (n("poly.lie_derivative"), "count"),
        "poly.lie_derivative_s": (t("poly.lie_derivative"), "s"),
        "poly.self_s": (module_self.get("poly", 0.0), "s"),
        "sosprog.encode_calls": (n("sosprog.encode"), "count"),
        "sosprog.encode_s": (t("sosprog.encode"), "s"),
        "sosprog.rows": (rows, "count"),
        "sosprog.max_rows": (max_rows, "count"),
        "sosprog.nnz": (nnz, "count"),
        "sosprog.dense_entries": (dense, "count"),
        "sosprog.decode_s": (t("sosprog.decode"), "s"),
        "sosprog.self_s": (module_self.get("sosprog", 0.0), "s"),
        "sdp.solve_calls": (solve_calls, "count"),
        "sdp.solve_s": (t("sdp.solve"), "s"),
        "sdp.iterations": (iterations, "count"),
        "sdp.iteration_s": (t("sdp.solve") / max(iterations, 1), "s"),
        "sdp.infeasible": (infeasible, "count"),
        "sdp.failed": (failed, "count"),
        "sdp.useful_ratio": ((solve_calls - failed) / max(solve_calls, 1),
                             "ratio"),
        "sdp.self_s": (module_self.get("sdp", 0.0), "s"),
        "certify.decay_calls": (n("certify.find_absorbing_lyapunov"),
                                "count"),
        "certify.decay_s": (t("certify.find_absorbing_lyapunov"), "s"),
        "certify.gamma_s": (t("certify.minimize_gamma"), "s"),
        "certify.verify_calls": (n("certify.verify_certificate"), "count"),
        "certify.verify_s": (t("certify.verify_certificate"), "s"),
        "certify.verify_solves": (verify_solves, "count"),
        "certify.solves_per_certificate": (
            certify_solves / max(certificates, 1), "ratio"),
        "certify.self_s": (module_self.get("certify", 0.0), "s"),
        "sim.state_steps": (state_steps, "count"),
        "sim.state_steps_per_s": (state_steps / max(sim_busy, 1e-9), "1/s"),
        "sim.absorption_s": (t("sim.check_absorption"), "s"),
        "sim.adversarial_s": (t("sim.adversarial_switching"), "s"),
        "sim.integrate_s": (t("sim.integrate"), "s"),
        "sim.self_s": (module_self.get("sim", 0.0), "s"),
        "cli.parse_s": (t("cli.load_system", "cli.parse_system_text",
                          "cli.parse_certificate_text",
                          "cli.certificate_to_text"), "s"),
        "cli.self_s": (module_self.get("cli", 0.0), "s"),
    }, calls


def median_metrics(per_pass):
    """Median of each metric over a list of {name: (value, unit)} dicts."""
    out = {}
    for name, (_, unit) in per_pass[0].items():
        out[name] = (statistics.median(p[name][0] for p in per_pass), unit)
    return out
