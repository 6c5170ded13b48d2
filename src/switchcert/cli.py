"""Command-line interface: certify, verify, simulate, levelset.

Exit codes (disjoint; no success path writes to stderr, and every failure
prints one "prefix: message" line there, argparse's usage errors below
their usage):
    0  success
    1  usage errors (argparse's included), file, parse or dimension errors,
       query or certificate constants that are not finite or out of range,
       grid or window bounds that are not finite, simulation starts that
       are not finite or lie beyond the divergence guard, and output paths
       that cannot be written
    2  proven infeasibility: every degree up to the cap returned a Farkas ray
    3  numerical failure in the solver
    4  certificate verification check failed
    5  trajectory diverged under a verified certificate (contradiction)

System files:
    dim 2
    subsystems 2
    param b=5            # optional named parameters, substituted textually;
                         # --param b=12 overrides a declared one
    subsystem 1
    x2
    -0.1*x1 - 2*x2
    subsystem 2
    x2
    -b*x1 - 2*x2

Certificate files are plain text (verdict, ell, delta, beta, gamma, then
polynomial listings for V, p_i, q with 17 significant digits) so that
published certificates can be typed in and verified independently.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import sim
from .certify import (AbsorbingSetCertificate, CertificateRejectedError,
                      CertificationQuery, GammaInfeasibleError,
                      InfeasibleAtCapError, NumericalFailureError,
                      SwitchedSystem, check_matches, check_positive, escalate,
                      verify_certificate)
from .poly import (ParseError, PolynomialVectorField,
                   parse_expression, poly_to_text)
from .sdp import write_sdpa

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY_FAILED = 4
EXIT_CONTRADICTION = 5

_FLOAT_FMT = ".17g"

# printed after the solve logs and written under them in the certificate
SIZE_NOTE = ("sizes: native convention; toolbox conventions may swap "
             "equalities and decision variables")


class FileFormatError(ValueError):
    pass


# -- system files ---------------------------------------------------------------

_PARAM_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def _substitute_params(expr: str, params: dict) -> str:
    for name, value in params.items():
        expr = re.sub(rf"\b{re.escape(name)}\b",
                      f"({format(value, _FLOAT_FMT)})", expr)
    return expr


def parse_system_text(text: str, overrides: dict | None = None) -> SwitchedSystem:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise FileFormatError("empty system file")

    dim = None
    n_sub = None
    params: dict = {}
    pos = 0
    while pos < len(lines):
        tokens = lines[pos].split()
        if tokens[0] == "dim" and len(tokens) == 2:
            dim = int(tokens[1])
        elif tokens[0] == "subsystems" and len(tokens) == 2:
            n_sub = int(tokens[1])
        elif tokens[0] == "param":
            body = lines[pos][len("param"):].strip()
            if "=" not in body:
                raise FileFormatError(f"malformed param line: {lines[pos]!r}")
            name, value = (part.strip() for part in body.split("=", 1))
            if not _PARAM_NAME_RE.match(name) or re.match(r"^x\d+$", name):
                raise FileFormatError(f"invalid parameter name {name!r}")
            if not np.isfinite(float(value)):
                raise FileFormatError(
                    f"parameter {name} is not finite in {lines[pos]!r}")
            params[name] = float(value)
        elif tokens[0] == "subsystem":
            break
        else:
            raise FileFormatError(f"unexpected line: {lines[pos]!r}")
        pos += 1
    if dim is None or n_sub is None:
        raise FileFormatError("system file needs 'dim' and 'subsystems' lines")
    undeclared = sorted(set(overrides or {}) - set(params))
    if undeclared:
        raise FileFormatError(
            f"undeclared parameter {', '.join(undeclared)} (declared: "
            f"{', '.join(sorted(params)) or 'none'})")
    for name, value in (overrides or {}).items():
        if not np.isfinite(value):
            raise ValueError(f"parameter override {name}={value} is not finite")
    params.update(overrides or {})

    fields = []
    for expected in range(1, n_sub + 1):
        if pos >= len(lines) or lines[pos].split() != ["subsystem", str(expected)]:
            raise FileFormatError(f"expected 'subsystem {expected}' header")
        pos += 1
        comps = []
        for _ in range(dim):
            if pos >= len(lines):
                raise FileFormatError(
                    f"subsystem {expected} is missing component expressions")
            expr = _substitute_params(lines[pos], params)
            try:
                comps.append(parse_expression(expr, dim))
            except ParseError as exc:
                raise FileFormatError(
                    f"subsystem {expected}: {exc} in {lines[pos]!r}") from exc
            pos += 1
        fields.append(PolynomialVectorField(dim, tuple(comps)))
    if pos != len(lines):
        raise FileFormatError(f"trailing content: {lines[pos]!r}")
    return SwitchedSystem(dim, tuple(fields))


def load_system(path: str, overrides: dict | None = None) -> SwitchedSystem:
    return parse_system_text(Path(path).read_text(), overrides)


# -- certificate files -----------------------------------------------------------


def certificate_to_text(cert: AbsorbingSetCertificate,
                        extra_comments: list | None = None) -> str:
    lines = ["# switchcert certificate"]
    lines.append(f"dim {cert.dimension}")
    lines.append(f"subsystems {cert.n_subsystems}")
    lines.append(f"ell {cert.ell}")
    lines.append(f"delta {format(cert.delta, _FLOAT_FMT)}")
    lines.append(f"beta {format(cert.beta, _FLOAT_FMT)}")
    if cert.gamma is not None:
        lines.append(f"gamma {format(cert.gamma, _FLOAT_FMT)}")
    if cert.verdict:
        lines.append(f"verdict {cert.verdict}")
    lines.append(f"V = {poly_to_text(cert.lyapunov)}")
    if cert.multipliers:
        for i, p in enumerate(cert.multipliers, start=1):
            lines.append(f"p{i} = {poly_to_text(p)}")
    if cert.radius_multiplier is not None:
        lines.append(f"q = {poly_to_text(cert.radius_multiplier)}")
    if cert.report is not None:
        lines.append("# verification summary")
        for entry in cert.report.summary_lines():
            lines.append(f"# {entry}")
    for comment in extra_comments or []:
        lines.append(f"# {comment}")
    return "\n".join(lines) + "\n"


# certificate keys and the types of their values
_CERTIFICATE_KEYS = {"dim": int, "subsystems": int, "ell": int,
                     "delta": float, "beta": float, "gamma": float,
                     "verdict": str}


def parse_certificate_text(text: str) -> AbsorbingSetCertificate:
    values: dict = {}
    polys: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line and not line.split("=", 1)[0].strip().isidentifier():
            raise FileFormatError(f"malformed certificate line: {line!r}")
        if "=" in line:
            name, expr = (part.strip() for part in line.split("=", 1))
            polys[name] = expr
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise FileFormatError(f"malformed certificate line: {line!r}")
        key, value = tokens
        if key not in _CERTIFICATE_KEYS:
            raise FileFormatError(f"unknown certificate key {key!r}")
        values[key] = _CERTIFICATE_KEYS[key](value)
    required = ("dim", "subsystems", "ell", "delta", "beta")
    if not values.keys() >= set(required) or "V" not in polys:
        raise FileFormatError(
            "certificate needs dim, subsystems, ell, delta, beta and V")
    dim, n_sub = values["dim"], values["subsystems"]
    keys = [f"p{i}" for i in range(1, n_sub + 1)]
    try:
        V = parse_expression(polys.pop("V"), dim)
        multipliers = {key: parse_expression(polys.pop(key), dim)
                       for key in keys if key in polys}
        q = parse_expression(polys.pop("q"), dim) if "q" in polys else None
    except ParseError as exc:
        raise FileFormatError(f"bad polynomial in certificate: {exc}") from exc
    if polys:
        raise FileFormatError(f"unknown polynomial entries: {sorted(polys)}")
    missing = [key for key in keys if key not in multipliers]
    if multipliers and missing:
        raise FileFormatError(
            f"certificate gives some multipliers but not {', '.join(missing)}")
    if q is not None and "gamma" not in values:
        raise FileFormatError("certificate gives q but not gamma")
    return AbsorbingSetCertificate(
        dimension=dim, n_subsystems=n_sub, lyapunov=V, beta=values["beta"],
        delta=values["delta"], ell=values["ell"], gamma=values.get("gamma"),
        multipliers=tuple(multipliers.values()) or None,
        radius_multiplier=q, verdict=values.get("verdict"))


def load_certificate(path: str) -> AbsorbingSetCertificate:
    return parse_certificate_text(Path(path).read_text())


# -- shared option helpers --------------------------------------------------------


def _parse_param_flags(values) -> dict:
    params = {}
    for item in values or []:
        if "=" not in item:
            raise FileFormatError(f"--param expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        if not np.isfinite(float(value)):
            raise FileFormatError(f"--param {item} is not finite")
        params[name.strip()] = float(value)
    return params


def _parse_axes(text: str, expected: int, kind: str, usage: str) -> list:
    """One tuple (chunk, lo, hi) or (chunk, lo, hi, count) per
    comma-separated chunk of a window ("lo:hi") or grid ("lo:hi:count")
    flag; both bounds must be finite."""
    axes = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != usage.count(":") + 1:
            raise FileFormatError(f"bad {kind} chunk {chunk!r}; use {usage}")
        bounds = float(parts[0]), float(parts[1])
        if not np.all(np.isfinite(bounds)):
            raise FileFormatError(
                f"non-finite bound in {kind} chunk {chunk!r}")
        axes.append((chunk,) + bounds + tuple(int(part) for part in parts[2:]))
    if len(axes) != expected:
        raise FileFormatError(
            f"{kind} has {len(axes)} axes, expected {expected}")
    return axes


def _grid(kind: str, axes) -> np.ndarray:
    """Points of the grid over (chunk, lo, hi, count) axes, one row each; a
    count of 1 takes the midpoint of its axis.  An axis whose width or
    points overflow the double range is a usage error naming its chunk."""
    lines = []
    for chunk, lo, hi, count in axes:
        if count < 1:
            raise FileFormatError(f"grid count must be at least 1, got {count}")
        with np.errstate(over="ignore", invalid="ignore"):
            line = (np.linspace(lo, hi, count) if count > 1
                    else np.array([(lo + hi) / 2.0]))
        if not (np.isfinite(hi - lo) and np.all(np.isfinite(line))):
            raise FileFormatError(f"{kind} chunk {chunk!r} overflows: its "
                                  "width or a grid point is not finite")
        lines.append(line)
    mesh = np.meshgrid(*lines, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _parse_grid(text: str, expected: int) -> np.ndarray:
    return _grid("grid", _parse_axes(text, expected, "grid", "lo:hi:count"))


def _fmt(value: float) -> str:
    return format(float(value), _FLOAT_FMT)


def _write_csv(path, header: str, block: np.ndarray, int_columns=()) -> None:
    """Write the header line and one comma-separated line per row of the
    2-D block: each cell with '%.17g', the text of _fmt, or with '%d' in
    int_columns.  One printf template formats the whole block at once."""
    row = ",".join("%d" if k in int_columns else "%.17g"
                   for k in range(block.shape[1]))
    body = "".join([row + "\n"] * len(block)) % tuple(block.ravel().tolist())
    Path(path).write_text(header + "\n" + body)


def _check_count(flag: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{flag} must be a non-negative integer")


def _check_parent_dir(path: str) -> None:
    """Raise the error that writing to path would raise when its directory
    is missing, before any work is spent on what goes there."""
    parent = Path(path).parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


def _parse_slice(text: str, n: int) -> list:
    try:
        axes = [int(tok) for tok in text.split(",")]
    except ValueError:
        axes = []
    if len(axes) != 2 or axes[0] == axes[1] \
            or not all(1 <= a <= n for a in axes):
        raise FileFormatError(f"bad --slice {text!r}")
    return axes


# -- subcommands -------------------------------------------------------------------
#
# Each subcommand raises on failure; main maps the exception to its exit code.


def cmd_certify(args) -> None:
    system = load_system(args.system, _parse_param_flags(args.param))
    if args.degree is not None and args.degree > 4 and args.delta is None:
        raise ValueError("--degree above 4 requires an explicit --delta "
                         "(conditioning)")
    _check_count("--seed", args.seed)
    delta = args.delta if args.delta is not None else 1.0
    beta = 0.0 if args.beta is None and args.beta_max is None else args.beta

    query = CertificationQuery(
        ell=args.ell, delta=delta, degree=args.degree,
        beta=beta, beta_max=args.beta_max, degree_cap=args.degree_cap,
        deg_q=args.q_degree, seed=args.seed)
    out_path = args.out or str(Path(args.system).with_suffix(".cert"))
    for path in filter(None, (out_path, args.dump_sdp)):
        _check_parent_dir(path)
    outcome = escalate(system, query)

    for log in outcome.logs:
        print(log.line())
    print(f"note: {SIZE_NOTE}")
    if args.degree is None and outcome.degree > 4 and args.delta is None:
        print(f"warning: escalation reached degree {outcome.degree} with the"
              " default delta; consider an explicit --delta")
    print(f"verdict {outcome.verdict.kind}")
    for note in outcome.verdict.notes:
        print(f"  {note}")
    print(f"degree {outcome.degree}  beta {_fmt(outcome.certificate.beta)}  "
          f"gamma {_fmt(outcome.certificate.gamma)}")

    size_comments = [log.line() for log in outcome.logs] + [SIZE_NOTE]
    Path(out_path).write_text(
        certificate_to_text(outcome.certificate, size_comments))
    print(f"certificate written to {out_path}")

    if args.dump_sdp:
        write_sdpa(outcome.search.encoding.problem, args.dump_sdp)
        print(f"SDPA dump written to {args.dump_sdp}")


def cmd_verify(args) -> None:
    check_positive(("--samples", args.samples),
                   ("--residual-tol", args.residual_tol))
    _check_count("--seed", args.seed)
    system = load_system(args.system, _parse_param_flags(args.param))
    cert = load_certificate(args.certificate)
    report = verify_certificate(
        system, cert, sample_count=args.samples, seed=args.seed,
        residual_tol=args.residual_tol)
    for entry in report.summary_lines():
        print(entry)


def cmd_simulate(args) -> None:
    check_positive(("--step", args.step), ("--horizon", args.horizon),
                   ("--mean-dwell", args.mean_dwell))
    _check_count("--seed", args.seed)
    _check_count("--signals", args.signals)
    system = load_system(args.system, _parse_param_flags(args.param))
    cert = load_certificate(args.certificate) if args.certificate else None
    x0 = _parse_grid(args.x0_grid, system.dimension)
    sim.check_starts(system, x0)
    if cert is not None:
        check_matches(cert, system)
        if cert.gamma is None:
            raise ValueError("certificate has no gamma level")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    header = ",".join(f"x{k}" for k in range(1, system.dimension + 1))
    _write_csv(out_dir / "x0_grid.csv", header, x0)

    signals = [sim.random_switching(system.n_subsystems, args.horizon,
                                    args.mean_dwell, args.seed + k)
               for k in range(args.signals)]
    if args.adversarial:
        V = cert.lyapunov if cert is not None else None
        signals.append(sim.adversarial_switching(
            system, V, x0[0], args.step, args.horizon))
    if not signals:
        print(f"{len(x0)} initial conditions echoed; no signals requested")
        return

    trajectories, report = sim.integrate_batch(
        system, signals, x0, args.step, args.horizon, cert)
    for row, trajectory in enumerate(trajectories):
        s_idx, t_idx = divmod(row, len(x0))
        _write_csv(out_dir / f"trajectory_{s_idx:03d}_{t_idx:03d}.csv",
                   "t,i," + header,
                   np.column_stack([trajectory.times, trajectory.active,
                                    trajectory.states]),
                   int_columns=(1,))
    written = len(trajectories)
    diverged = sum(t.diverged for t in trajectories)

    summary = {
        "trajectories": written,
        "signals": len(signals),
        "diverged": diverged,
        "seed": args.seed,
    }
    if report is not None:
        summary["violations"] = report.violations
        summary["not_entered"] = report.not_entered
        summary["max_post_entry_excess"] = (
            None if report.max_post_entry == -np.inf
            else report.max_post_entry)
        print(f"absorption: {report.violations} violations, "
              f"{report.not_entered} trajectories never entered")
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"{written} trajectories written to {out_dir}"
          + (f", {diverged} diverged" if diverged else ""))


_DEFAULT_WINDOWS = {2: "-3:3,-4:4", 3: "-5:5,-2:2,-3:3"}


def cmd_levelset(args) -> None:
    cert = load_certificate(args.certificate)
    n = cert.dimension
    if n > 3 and args.slice is None:
        raise ValueError("dimension above 3 requires --slice i,j "
                         "(remaining coordinates fixed at 0)")
    free_axes = list(range(1, n + 1)) if args.slice is None \
        else _parse_slice(args.slice, n)

    window_text = args.window or _DEFAULT_WINDOWS.get(len(free_axes))
    if window_text is None:
        raise ValueError("--window required for this dimension")
    window = _parse_axes(window_text, len(free_axes), "window", "lo:hi")
    grid = _grid("window", [axis + (args.resolution,) for axis in window])

    points = np.zeros((len(grid), n))
    points[:, [axis - 1 for axis in free_axes]] = grid
    values = cert.lyapunov.evaluate_many(points)

    header = ",".join(f"x{k}" for k in range(1, n + 1)) + ",V"
    _write_csv(args.out, header, np.column_stack([points, values]))
    print(f"{len(points)} grid rows written to {args.out}")


# -- argument parsing ----------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, with usage errors on code 1: its own code 2 is
    the code of proven infeasibility."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="switchcert",
        description="Absorbing-set certification for switched polynomial "
                    "systems via sum-of-squares programming.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="search for a certificate")
    p_cert.add_argument("system")
    p_cert.add_argument("--ell", type=int, default=1)
    p_cert.add_argument("--delta", type=float, default=None)
    p_cert.add_argument("--degree", type=int, default=None)
    group = p_cert.add_mutually_exclusive_group()
    group.add_argument("--beta", type=float, default=None)
    group.add_argument("--beta-max", dest="beta_max", type=float, default=None)
    p_cert.add_argument("--degree-cap", dest="degree_cap", type=int, default=12)
    p_cert.add_argument("--q-degree", dest="q_degree", type=int, default=None)
    p_cert.add_argument("--param", action="append", default=[])
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--out", default=None)
    p_cert.add_argument("--dump-sdp", dest="dump_sdp", default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_ver = sub.add_parser("verify", help="verify a certificate file")
    p_ver.add_argument("system")
    p_ver.add_argument("certificate")
    p_ver.add_argument("--param", action="append", default=[])
    p_ver.add_argument("--samples", type=int, default=2000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--residual-tol", dest="residual_tol", type=float,
                       default=1e-6)
    p_ver.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="integrate switched trajectories")
    p_sim.add_argument("system")
    p_sim.add_argument("--signals", type=int, default=5)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--x0-grid", dest="x0_grid", required=True,
                       help="per-axis lo:hi:count, comma separated")
    p_sim.add_argument("--horizon", type=float, default=20.0)
    p_sim.add_argument("--step", type=float, default=1e-3)
    p_sim.add_argument("--mean-dwell", dest="mean_dwell", type=float,
                       default=0.5)
    p_sim.add_argument("--certificate", default=None)
    p_sim.add_argument("--adversarial", action="store_true")
    p_sim.add_argument("--param", action="append", default=[])
    p_sim.add_argument("--out", default="simulation_output")
    p_sim.set_defaults(func=cmd_simulate)

    p_lvl = sub.add_parser("levelset", help="sample V on a uniform grid")
    p_lvl.add_argument("certificate")
    p_lvl.add_argument("--window", default=None,
                       help="per-axis lo:hi, comma separated")
    p_lvl.add_argument("--resolution", type=int, default=100)
    p_lvl.add_argument("--slice", default=None,
                       help="two 1-based axes to sample, the others at 0")
    p_lvl.add_argument("--out", default="levelset.csv")
    p_lvl.set_defaults(func=cmd_levelset)
    return parser


# (exception classes, exit code, stderr prefix); the first match wins, so
# np.linalg.LinAlgError, a ValueError, resolves to code 3 before the last
# row, which also takes FileFormatError and EquilibriumError
_EXIT_POLICY = (
    (InfeasibleAtCapError, EXIT_INFEASIBLE, "infeasible"),
    ((NumericalFailureError, GammaInfeasibleError, np.linalg.LinAlgError),
     EXIT_NUMERICAL, "numerical failure"),
    (CertificateRejectedError, EXIT_VERIFY_FAILED, "verification failed"),
    (sim.CertificateContradictionError, EXIT_CONTRADICTION, "contradiction"),
    ((OSError, ValueError), EXIT_USAGE, "error"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:
        for classes, code, prefix in _EXIT_POLICY:
            if isinstance(exc, classes):
                break
        else:
            raise
        if isinstance(exc, CertificateRejectedError):
            for entry in exc.report.summary_lines():
                print(entry)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
