"""Command-line interface: certify, verify, simulate, levelset.

Exit codes (disjoint; no success path writes to stderr):
    0  success
    1  usage, file, parse or dimension errors
    2  proven infeasibility at the degree cap
    3  numerical failure in the solver
    4  certificate verification check failed
    5  trajectory diverged under a verified certificate (contradiction)

System files:
    dim 2
    subsystems 2
    param b=5            # optional named parameters, substituted textually
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
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import certify as cert_mod
from . import sim
from .certify import (AbsorbingSetCertificate, CertificateRejectedError,
                      CertificationQuery, EquilibriumError,
                      GammaInfeasibleError, InfeasibleAtCapError,
                      NumericalFailureError, SwitchedSystem, escalate,
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
            params[name] = float(value)
        elif tokens[0] == "subsystem":
            break
        else:
            raise FileFormatError(f"unexpected line: {lines[pos]!r}")
        pos += 1
    if dim is None or n_sub is None:
        raise FileFormatError("system file needs 'dim' and 'subsystems' lines")
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


def parse_certificate_text(text: str) -> AbsorbingSetCertificate:
    dim = n_sub = ell = None
    delta = beta = gamma = None
    verdict = None
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
        if key == "dim":
            dim = int(value)
        elif key == "subsystems":
            n_sub = int(value)
        elif key == "ell":
            ell = int(value)
        elif key == "delta":
            delta = float(value)
        elif key == "beta":
            beta = float(value)
        elif key == "gamma":
            gamma = float(value)
        elif key == "verdict":
            verdict = value
        else:
            raise FileFormatError(f"unknown certificate key {key!r}")
    if None in (dim, n_sub, ell, delta, beta) or "V" not in polys:
        raise FileFormatError(
            "certificate needs dim, subsystems, ell, delta, beta and V")
    try:
        V = parse_expression(polys.pop("V"), dim)
        multipliers = []
        for i in range(1, n_sub + 1):
            key = f"p{i}"
            if key in polys:
                multipliers.append(parse_expression(polys.pop(key), dim))
        q = None
        if "q" in polys:
            q = parse_expression(polys.pop("q"), dim)
    except ParseError as exc:
        raise FileFormatError(f"bad polynomial in certificate: {exc}") from exc
    if polys:
        raise FileFormatError(f"unknown polynomial entries: {sorted(polys)}")
    return AbsorbingSetCertificate(
        dimension=dim, n_subsystems=n_sub, lyapunov=V, beta=beta, delta=delta,
        ell=ell, gamma=gamma,
        multipliers=tuple(multipliers) if len(multipliers) == n_sub else None,
        radius_multiplier=q, verdict=verdict)


def load_certificate(path: str) -> AbsorbingSetCertificate:
    return parse_certificate_text(Path(path).read_text())


# -- shared option helpers --------------------------------------------------------


def _parse_param_flags(values) -> dict:
    params = {}
    for item in values or []:
        if "=" not in item:
            raise FileFormatError(f"--param expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        params[name.strip()] = float(value)
    return params


def _parse_window(text: str, expected: int) -> list:
    axes = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise FileFormatError(f"bad window chunk {chunk!r}; use lo:hi")
        axes.append((float(parts[0]), float(parts[1])))
    if len(axes) != expected:
        raise FileFormatError(
            f"window has {len(axes)} axes, expected {expected}")
    return axes


def _parse_grid(text: str, expected: int) -> np.ndarray:
    axes = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise FileFormatError(
                f"bad grid chunk {chunk!r}; use lo:hi:count")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise FileFormatError("grid count must be at least 1")
        axes.append(np.linspace(lo, hi, count) if count > 1
                    else np.array([(lo + hi) / 2.0]))
    if len(axes) != expected:
        raise FileFormatError(f"grid has {len(axes)} axes, expected {expected}")
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _fmt(value: float) -> str:
    return format(float(value), _FLOAT_FMT)


# -- subcommands -------------------------------------------------------------------


def cmd_certify(args) -> int:
    try:
        params = _parse_param_flags(args.param)
        system = load_system(args.system, params)
    except (FileFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.degree is not None and args.degree > 4 and args.delta is None:
        print("error: --degree above 4 requires an explicit --delta "
              "(conditioning)", file=sys.stderr)
        return EXIT_USAGE
    delta = args.delta if args.delta is not None else 1.0

    query = CertificationQuery(
        ell=args.ell, delta=delta, degree=args.degree,
        beta=args.beta, beta_max=args.beta_max,
        homogeneous=True if args.homogeneous else None,
        degree_cap=args.degree_cap, deg_q=args.q_degree, seed=args.seed)
    if args.beta is None and args.beta_max is None:
        query.beta = 0.0

    try:
        outcome = escalate(system, query)
    except InfeasibleAtCapError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericalFailureError, GammaInfeasibleError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CertificateRejectedError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (EquilibriumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    for log in outcome.logs:
        print(log.line())
    print(f"note: {SIZE_NOTE}")
    if args.degree is None and outcome.degree > 4 and args.delta is None:
        print(f"warning: escalation reached degree {outcome.degree} with the"
              " default delta; consider an explicit --delta", file=sys.stdout)
    print(f"verdict {outcome.verdict.kind}")
    for note in outcome.verdict.notes:
        print(f"  {note}")
    print(f"degree {outcome.degree}  beta {_fmt(outcome.certificate.beta)}  "
          f"gamma {_fmt(outcome.certificate.gamma)}")

    out_path = args.out or (str(Path(args.system).with_suffix(".cert")))
    size_comments = [log.line() for log in outcome.logs] + [SIZE_NOTE]
    Path(out_path).write_text(
        certificate_to_text(outcome.certificate, size_comments))
    print(f"certificate written to {out_path}")

    if args.dump_sdp:
        program, _ = cert_mod.build_absorbing_program(
            system, query.ell, delta, outcome.degree,
            outcome.certificate.beta, query.homogeneous)
        from .sosprog import encode as sos_encode
        write_sdpa(sos_encode(program).problem, args.dump_sdp)
        print(f"SDPA dump written to {args.dump_sdp}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        system = load_system(args.system, _parse_param_flags(args.param))
        cert = load_certificate(args.certificate)
    except (FileFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if cert.dimension != system.dimension \
            or cert.n_subsystems != system.n_subsystems:
        print("error: certificate does not match system dimensions",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        report = verify_certificate(
            system, cert, sample_count=args.samples, seed=args.seed,
            residual_tol=args.residual_tol)
    except CertificateRejectedError as exc:
        for entry in exc.report.summary_lines():
            print(entry)
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for entry in report.summary_lines():
        print(entry)
    return EXIT_OK


def _write_trajectory_csv(path: Path, trajectory) -> None:
    n = trajectory.states.shape[1]
    header = "t,i," + ",".join(f"x{k}" for k in range(1, n + 1))
    rows = [header]
    for t, idx, state in zip(trajectory.times, trajectory.active,
                             trajectory.states):
        cells = [_fmt(t), str(int(idx))] + [_fmt(v) for v in state]
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n")


def cmd_simulate(args) -> int:
    try:
        system = load_system(args.system, _parse_param_flags(args.param))
        cert = load_certificate(args.certificate) if args.certificate else None
        x0 = _parse_grid(args.x0_grid, system.dimension)
    except (FileFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if cert is not None and cert.dimension != system.dimension:
        print("error: certificate does not match system dimension",
              file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    header = ",".join(f"x{k}" for k in range(1, system.dimension + 1))
    grid_rows = [header] + [",".join(_fmt(v) for v in row) for row in x0]
    (out_dir / "x0_grid.csv").write_text("\n".join(grid_rows) + "\n")

    signals = [sim.random_switching(system.n_subsystems, args.horizon,
                                    args.mean_dwell, args.seed + k)
               for k in range(args.signals)]
    if args.adversarial:
        V = cert.lyapunov if cert is not None else None
        signals.append(sim.adversarial_switching(
            system, V, x0[0], args.step, args.horizon))
    if not signals:
        print(f"{len(x0)} initial conditions echoed; no signals requested")
        return EXIT_OK

    diverged = 0
    written = 0
    for s_idx, signal in enumerate(signals):
        for t_idx, start in enumerate(x0):
            trajectory = sim.integrate(system, signal, start, args.step,
                                       args.horizon)
            if trajectory.diverged:
                diverged += 1
                if cert is not None:
                    print("contradiction: trajectory diverged under a "
                          "verified certificate", file=sys.stderr)
                    return EXIT_CONTRADICTION
            _write_trajectory_csv(
                out_dir / f"trajectory_{s_idx:03d}_{t_idx:03d}.csv",
                trajectory)
            written += 1

    summary = {
        "trajectories": written,
        "signals": len(signals),
        "diverged": diverged,
        "seed": args.seed,
    }
    if cert is not None:
        report = sim.check_absorption(system, cert, x0, signals,
                                      h=args.step, horizon=args.horizon)
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
    return EXIT_OK


_DEFAULT_WINDOWS = {2: "-3:3,-4:4", 3: "-5:5,-2:2,-3:3"}


def cmd_levelset(args) -> int:
    try:
        cert = load_certificate(args.certificate)
    except (FileFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    n = cert.dimension
    slice_axes = None
    if n > 3:
        if not args.slice:
            print("error: dimension above 3 requires --slice i,j "
                  "(remaining coordinates fixed at 0)", file=sys.stderr)
            return EXIT_USAGE
        try:
            slice_axes = tuple(int(tok) for tok in args.slice.split(","))
            if len(slice_axes) != 2 or not all(1 <= a <= n for a in slice_axes):
                raise ValueError
        except ValueError:
            print(f"error: bad --slice {args.slice!r}", file=sys.stderr)
            return EXIT_USAGE
    free_axes = list(slice_axes) if slice_axes else list(range(1, n + 1))

    window_text = args.window or _DEFAULT_WINDOWS.get(len(free_axes))
    if window_text is None:
        print("error: --window required for this dimension", file=sys.stderr)
        return EXIT_USAGE
    try:
        window = _parse_window(window_text, len(free_axes))
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    res = args.resolution
    axes = []
    for lo, hi in window:
        axes.append(np.linspace(lo, hi, res) if res > 1
                    else np.array([(lo + hi) / 2.0]))
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = [m.ravel() for m in mesh]
    points = np.zeros((flat[0].size, n))
    for axis, values in zip(free_axes, flat):
        points[:, axis - 1] = values
    values = cert.lyapunov.evaluate_many(points)

    header = ",".join(f"x{k}" for k in range(1, n + 1)) + ",V"
    rows = [header]
    for point, v in zip(points, values):
        rows.append(",".join([_fmt(c) for c in point] + [_fmt(v)]))
    Path(args.out).write_text("\n".join(rows) + "\n")
    print(f"{len(points)} grid rows written to {args.out}")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_cert.add_argument("--homogeneous", action="store_true")
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
                       help="two 1-based axes for dimensions above 3")
    p_lvl.add_argument("--out", default="levelset.csv")
    p_lvl.set_defaults(func=cmd_levelset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except sim.CertificateContradictionError as exc:
        print(f"contradiction: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION


if __name__ == "__main__":
    sys.exit(main())
