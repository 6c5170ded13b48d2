import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import REPO, SYSTEMS
from switchcert import certify as cert_mod, cli, sdp, sim
from switchcert.cli import (FileFormatError, certificate_to_text,
                            load_certificate, load_system, main,
                            parse_certificate_text, parse_system_text)
from switchcert.certify import (AbsorbingSetCertificate,
                                CertificateRejectedError, EquilibriumError,
                                GammaInfeasibleError, NumericalFailureError)
from switchcert.poly import parse_expression
from switchcert.sdp import write_sdpa
from switchcert.sosprog import encode


@pytest.fixture(scope="module")
def affine_cert(tmp_path_factory):
    """One real certify run, reused by the read-back tests."""
    out = tmp_path_factory.mktemp("cert") / "affine_pair.cert"
    code = main(["certify", str(SYSTEMS / "affine_pair.sys"),
                 "--ell", "2", "--beta", "3.3", "--degree", "4",
                 "--out", str(out)])
    assert code == 0
    return out


class TestSystemFiles:
    def test_bundled_files_parse(self):
        for name in ("linear_pair.sys", "affine_pair.sys",
                     "affine_triple.sys", "cubic_3d_pair.sys",
                     "vdp_relay_pair.sys"):
            system = parse_system_text((SYSTEMS / name).read_text())
            assert system.n_subsystems >= 2

    def test_param_substitution_and_override(self):
        text = SYSTEMS.joinpath("linear_pair.sys").read_text()
        default = parse_system_text(text)
        assert default.fields[1].components[1].coefficient((1, 0)) == -5.0
        overridden = parse_system_text(text, {"b": 7.5})
        assert overridden.fields[1].components[1].coefficient((1, 0)) == -7.5

    @pytest.mark.parametrize("name, overrides, message", [
        ("linear_pair", {"B": 12.0}, "B (declared: b)"),
        ("linear_pair", {"x2": 0.0}, "x2 (declared: b)"),
        ("linear_pair", {"b": 12.0, "c": 1.0}, "c (declared: b)"),
        ("affine_pair", {"b": 1.0}, "b (declared: none)")])
    def test_override_must_name_a_declared_parameter(self, name, overrides,
                                                     message):
        text = SYSTEMS.joinpath(f"{name}.sys").read_text()
        with pytest.raises(FileFormatError) as caught:
            parse_system_text(text, overrides)
        assert str(caught.value) == f"undeclared parameter {message}"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_library_override_is_named(self, value):
        # the override once reached the expression parser, which blamed the
        # file: "subsystem 2: unexpected character 'n'"
        with pytest.raises(ValueError) as info:
            load_system(str(SYSTEMS / "linear_pair.sys"), {"b": value})
        assert not isinstance(info.value, FileFormatError)
        assert str(info.value) == \
            f"parameter override b={value} is not finite"

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            parse_system_text("subsystem 1\nx1\n")

    def test_wrong_component_count_rejected(self):
        with pytest.raises(ValueError):
            parse_system_text("dim 2\nsubsystems 1\nsubsystem 1\nx1\n")


class TestCertificateFiles:
    def test_round_trip(self, published_v_affine_pair):
        cert = AbsorbingSetCertificate(
            dimension=2, n_subsystems=2, lyapunov=published_v_affine_pair,
            beta=3.3, delta=1.0, ell=2, gamma=8725.0,
            multipliers=(parse_expression("x1^2", 2),
                         parse_expression("x2^2", 2)),
            radius_multiplier=parse_expression("1 + x1^2", 2),
            verdict="ULTIMATELY_BOUNDED")
        parsed = parse_certificate_text(certificate_to_text(cert))
        assert parsed.lyapunov == cert.lyapunov
        assert parsed.multipliers == cert.multipliers
        assert parsed.radius_multiplier == cert.radius_multiplier
        assert parsed.beta == cert.beta
        assert parsed.gamma == cert.gamma
        assert parsed.verdict == cert.verdict

    def test_corrupt_polynomial_rejected(self):
        with pytest.raises(ValueError):
            parse_certificate_text(
                "dim 2\nsubsystems 1\nell 1\ndelta 1\nbeta 1\nV = x1^^2\n")


class TestCmdCertify:
    def test_writes_certificate_and_verifies(self, affine_cert, capsys):
        cert = load_certificate(str(affine_cert))
        assert cert.gamma > 0
        code = main(["verify", str(SYSTEMS / "affine_pair.sys"),
                     str(affine_cert)])
        assert code == 0

    def test_gas_verdict_for_linear_pair(self, tmp_path, capsys):
        out = tmp_path / "linear.cert"
        code = main(["certify", str(SYSTEMS / "linear_pair.sys"),
                     "--param", "b=12", "--ell", "6", "--delta", "0.001",
                     "--beta", "0", "--degree", "12", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "GLOBALLY_ASYMPTOTICALLY_STABLE" in stdout
        assert "equalities" in stdout  # SDP sizes are logged

    def test_infeasible_at_cap_exit_code(self, tmp_path):
        code = main(["certify", str(SYSTEMS / "linear_pair.sys"),
                     "--param", "b=20", "--ell", "1", "--delta", "1",
                     "--beta", "0", "--degree-cap", "6",
                     "--out", str(tmp_path / "no.cert")])
        assert code == 2

    def test_psd_bar_miss_is_numerical_failure(self, tmp_path, capsys,
                                               monkeypatch):
        # every solve converges, but its blocks miss the solver's PSD bar:
        # that proves nothing, so the degree walk ends in exit 3, not 2
        monkeypatch.setattr(sdp, "min_eigenvalue", lambda M: -1e-6)
        out = tmp_path / "none.cert"
        code, _, err = _run(["certify", str(SYSTEMS / "affine_pair.sys"),
                             "--ell", "2", "--beta", "3.3", "--degree-cap",
                             "6", "--out", str(out)], capsys)
        assert code == 3
        assert err.startswith("numerical failure: decay program at "
                              "beta=3.3, degree=4: point not PSD: smallest "
                              "block eigenvalue -1.000e-06")
        assert not out.exists()

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.sys"
        bad.write_text("dim 2\nsubsystems 1\nsubsystem 1\nx1 +* x2\nx1\n")
        assert main(["certify", str(bad)]) == 1

    def test_high_degree_requires_delta(self):
        code = main(["certify", str(SYSTEMS / "linear_pair.sys"),
                     "--degree", "6", "--beta", "0"])
        assert code == 1

    def test_beta_interval_tightens(self, tmp_path, capsys):
        out = tmp_path / "tight.cert"
        code = main(["certify", str(SYSTEMS / "affine_pair.sys"),
                     "--ell", "2", "--degree", "4", "--beta-max", "3.3",
                     "--out", str(out)])
        assert code == 0
        cert = load_certificate(str(out))
        assert cert.beta <= 3.3

    def test_dump_sdp(self, tmp_path):
        dump = tmp_path / "prog.dat-s"
        code = main(["certify", str(SYSTEMS / "affine_pair.sys"),
                     "--ell", "2", "--beta", "3.3", "--degree", "4",
                     "--out", str(tmp_path / "c.cert"),
                     "--dump-sdp", str(dump)])
        assert code == 0
        from switchcert.sdp import read_sdpa
        problem = read_sdpa(str(dump))
        assert problem.m > 0

    @pytest.mark.parametrize("flags", [["--beta", "3.3"], ["--beta-max", "6"]],
                             ids=["beta", "beta-max"])
    def test_dump_is_the_certified_search(self, tmp_path, capsys, monkeypatch,
                                          flags):
        # the dump is the encoding escalate certified, which is the decay
        # program at the certificate's degree and beta; it is not built again
        built = []
        inner = cert_mod.build_absorbing_program

        def counting(*args, **kwargs):
            built.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(cert_mod, "build_absorbing_program", counting)
        affine = str(SYSTEMS / "affine_pair.sys")
        dump, out = tmp_path / "prog.dat-s", tmp_path / "c.cert"
        code = main(["certify", affine, "--ell", "2", "--degree", "4",
                     *flags, "--out", str(out), "--dump-sdp", str(dump)])
        assert code == 0
        decay_lines = [line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("solve decay ")]
        assert len(built) == len(decay_lines)
        cert = load_certificate(str(out))
        program, _ = inner(load_system(affine), 2, 1.0, 4, cert.beta)
        write_sdpa(encode(program).problem, str(tmp_path / "rebuilt.dat-s"))
        assert dump.read_bytes() == (tmp_path / "rebuilt.dat-s").read_bytes()


class TestCmdVerify:
    def test_reduced_gamma_fails_containment(self, affine_cert, tmp_path):
        text = affine_cert.read_text()
        lines = [("gamma 100" if line.startswith("gamma ") else line)
                 for line in text.splitlines()]
        broken = tmp_path / "broken.cert"
        broken.write_text("\n".join(lines) + "\n")
        code = main(["verify", str(SYSTEMS / "affine_pair.sys"), str(broken)])
        assert code == 4

    def test_corrupted_certificate_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cert"
        bad.write_text("dim 2\nsubsystems 2\nell 2\ndelta 1\nbeta 3.3\n"
                       "V = 436.8*x1^4 + oops\n")
        code = main(["verify", str(SYSTEMS / "affine_pair.sys"), str(bad)])
        assert code == 1

    @pytest.mark.parametrize("listing, check", [
        ("V = x1^4 + x2^4 + x1^3\n", "lyapunov-lower-bound"),
        ("V = 2*x1^4 + 2*x2^4\np1 = x1\np2 = 1\n", "multiplier-p1"),
    ], ids=["V", "p1"])
    def test_odd_top_degree_exit_code(self, tmp_path, capsys, listing, check):
        path = tmp_path / "odd.cert"
        path.write_text("dim 2\nsubsystems 2\nell 2\ndelta 1\nbeta 3.3\n"
                        "gamma 100\n" + listing)
        code, _, err = _run(["verify", str(SYSTEMS / "affine_pair.sys"),
                             str(path), "--samples", "200"], capsys)
        assert code == 4
        assert f"{check} (odd top degree" in err

    @pytest.mark.parametrize("edit, message", [
        ({"p1": "p1 = -5*x1^2", "p2": None},
         "certificate gives some multipliers but not p2"),
        ({"p1": None}, "certificate gives some multipliers but not p1"),
        ({"gamma": None}, "certificate gives q but not gamma")],
        ids=["p1-without-p2", "p2-without-p1", "q-without-gamma"])
    def test_partial_witnesses_are_usage_errors(self, affine_cert, tmp_path,
                                                capsys, edit, message):
        # verify once searched its own witnesses for a file like these and
        # passed, dropping the given p1 = -5*x1^2, which is not SOS
        lines = []
        for line in affine_cert.read_text().splitlines():
            key = line.split(" ", 1)[0]
            if key not in edit:
                lines.append(line)
            elif edit[key] is not None:
                lines.append(edit[key])
        path = tmp_path / "partial.cert"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = _run(["verify", str(SYSTEMS / "affine_pair.sys"),
                               str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_dimension_mismatch_exit_code(self, affine_cert):
        code = main(["verify", str(SYSTEMS / "cubic_3d_pair.sys"),
                     str(affine_cert)])
        assert code == 1

    @pytest.mark.parametrize("flag, value", [
        ("--samples", "0"), ("--samples", "-5"), ("--residual-tol", "nan"),
        ("--residual-tol", "0")])
    def test_bad_check_flag_is_usage_error(self, affine_cert, capsys, flag,
                                           value):
        # with a NaN tolerance every residual comparison is false, so a
        # certificate with invalid SOS identities would pass
        code = main(["verify", str(SYSTEMS / "affine_pair.sys"),
                     str(affine_cert), f"{flag}={value}"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}")

    def test_published_certificate_typed_in(self, tmp_path, conftest=None):
        from conftest import V_AFFINE_PAIR
        cert_text = (
            "dim 2\nsubsystems 2\nell 2\ndelta 1\nbeta 3.3\ngamma 8725\n"
            f"V = {V_AFFINE_PAIR}\n")
        path = tmp_path / "typed.cert"
        path.write_text(cert_text)
        code = main(["verify", str(SYSTEMS / "affine_pair.sys"), str(path),
                     "--residual-tol", "1e-5"])
        assert code == 0


class TestCsvWriter:
    def test_text_matches_per_cell_format(self, tmp_path):
        # a trajectory-shaped block of 10001 rows: time, active index and
        # states spanning magnitudes, with signed zeros, infinities, nan,
        # the smallest subnormal and a value near the top of the range
        rng = np.random.default_rng(3)
        rows = 10001
        states = rng.normal(size=(rows, 2)) * 10.0 ** rng.integers(
            -300, 300, size=(rows, 2))
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308,
                    -1e308, 0.1, 1.0 / 3.0]
        states[:len(specials), 0] = specials
        states[:len(specials), 1] = specials[::-1]
        block = np.column_stack([np.linspace(0.0, 10.0, rows),
                                 rng.integers(0, 3, size=rows), states])
        path = tmp_path / "block.csv"
        cli._write_csv(path, "t,i,x1,x2", block, int_columns=(1,))
        expected = ["t,i,x1,x2"] + [
            ",".join([format(t, ".17g"), str(int(i))]
                     + [format(v, ".17g") for v in state])
            for t, i, *state in block.tolist()]
        assert path.read_text() == "\n".join(expected) + "\n"


class TestCmdSimulate:
    def test_grid_echo_without_signals(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(["simulate", str(SYSTEMS / "affine_pair.sys"),
                     "--signals", "0", "--x0-grid=-1:1:3,-1:1:3",
                     "--out", str(out)])
        assert code == 0
        grid = (out / "x0_grid.csv").read_text().strip().splitlines()
        assert len(grid) == 1 + 9
        assert not list(out.glob("trajectory_*.csv"))

    @pytest.mark.parametrize("flag, value", [
        ("--step", "0"), ("--horizon", "0"), ("--horizon", "nan"),
        ("--mean-dwell", "0")])
    def test_bad_grid_flag_is_usage_error(self, tmp_path, capsys, flag,
                                          value):
        code = main(["simulate", str(SYSTEMS / "affine_pair.sys"),
                     "--signals", "1", "--x0-grid", "1:1:1,0:0:1",
                     "--horizon", "1", f"{flag}={value}",
                     "--out", str(tmp_path / "sim")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}")

    def test_csv_determinism_across_runs(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(["simulate", str(SYSTEMS / "affine_pair.sys"),
                         "--signals", "2", "--seed", "11",
                         "--x0-grid", "1:1:1,0:0:1", "--horizon", "2",
                         "--step", "0.01", "--out", str(out)])
            assert code == 0
            outs.append(out)
        for name in ("trajectory_000_000.csv", "trajectory_001_000.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_divergence_with_certificate_contradiction(self, tmp_path):
        system = tmp_path / "unstable.sys"
        system.write_text("dim 1\nsubsystems 1\nsubsystem 1\n2*x1\n")
        cert = tmp_path / "bogus.cert"
        cert.write_text("dim 1\nsubsystems 1\nell 1\ndelta 1\nbeta 1\n"
                        "gamma 1\nV = x1^2\n")
        code = main(["simulate", str(system), "--signals", "1",
                     "--x0-grid", "3:3:1", "--horizon", "40",
                     "--step", "0.01", "--certificate", str(cert),
                     "--out", str(tmp_path / "boom")])
        assert code == 5

    def test_divergence_without_certificate_reports(self, tmp_path, capsys):
        system = tmp_path / "unstable.sys"
        system.write_text("dim 1\nsubsystems 1\nsubsystem 1\n2*x1\n")
        code = main(["simulate", str(system), "--signals", "1",
                     "--x0-grid", "3:3:1", "--horizon", "40",
                     "--step", "0.01", "--out", str(tmp_path / "diverge")])
        assert code == 0
        summary = json.loads(
            (tmp_path / "diverge" / "summary.json").read_text())
        assert summary["diverged"] == 1

    @pytest.mark.filterwarnings("error")
    def test_field_overflow_diverges_quietly(self, tmp_path, capsys):
        # x1^5 from 1e11 overflows within the first step: a divergence,
        # reported with nothing on stderr
        system = tmp_path / "quintic.sys"
        system.write_text("dim 1\nsubsystems 1\nsubsystem 1\nx1^5\n")
        out = tmp_path / "quintic"
        code, _, err = _run(["simulate", str(system), "--signals", "1",
                             "--x0-grid=1e11:1e11:1", "--horizon", "1",
                             "--step", "0.01", "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        assert json.loads((out / "summary.json").read_text())["diverged"] == 1

    def test_mixed_divergence_truncates_only_the_diverging_row(self,
                                                              tmp_path):
        system = tmp_path / "unstable.sys"
        system.write_text("dim 1\nsubsystems 1\nsubsystem 1\n2*x1\n")
        out = tmp_path / "mixed"
        code = main(["simulate", str(system), "--signals", "1",
                     "--x0-grid", "0:3:2", "--horizon", "40",
                     "--step", "0.01", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["trajectories"], summary["diverged"]) == (2, 1)
        at_rest = np.loadtxt(out / "trajectory_000_000.csv", delimiter=",",
                             skiprows=1)
        assert len(at_rest) == 4001
        assert at_rest[-1, 0] == 40.0
        assert np.all(at_rest[:, 2] == 0.0)
        growing = np.loadtxt(out / "trajectory_000_001.csv", delimiter=",",
                             skiprows=1)
        alone = sim.integrate(load_system(str(system)),
                              sim.SwitchingSignal.constant(1, 40.0), [3.0],
                              0.01, 40.0)
        assert alone.diverged
        assert len(growing) == len(alone.times) < 4001
        assert growing[-1, 0] == alone.diverged_at
        assert abs(growing[-1, 2]) > sim.DIVERGENCE_GUARD

    def test_divergence_with_certificate_writes_no_trajectory(self,
                                                              tmp_path):
        # the start at 0 never diverges; the one at 3 does, so no row of
        # the batch is written
        system = tmp_path / "unstable.sys"
        system.write_text("dim 1\nsubsystems 1\nsubsystem 1\n2*x1\n")
        cert = tmp_path / "bogus.cert"
        cert.write_text("dim 1\nsubsystems 1\nell 1\ndelta 1\nbeta 1\n"
                        "gamma 1\nV = x1^2\n")
        out = tmp_path / "boom"
        code = main(["simulate", str(system), "--signals", "1",
                     "--x0-grid", "0:3:2", "--horizon", "40",
                     "--step", "0.01", "--certificate", str(cert),
                     "--out", str(out)])
        assert code == 5
        assert not list(out.glob("trajectory_*.csv"))
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("certified", [False, True])
    def test_one_march_per_invocation(self, affine_cert, tmp_path,
                                      monkeypatch, certified):
        # every march builds its steppers once; without --adversarial the
        # march of the batch is the only one
        built = []
        real = sim._steppers

        def counting(system, dts):
            built.append(len(dts))
            return real(system, dts)

        monkeypatch.setattr(sim, "_steppers", counting)
        argv = ["simulate", str(SYSTEMS / "affine_pair.sys"),
                "--signals", "3", "--seed", "2", "--x0-grid=-2:2:2,-2:2:2",
                "--horizon", "1", "--step", "0.01",
                "--out", str(tmp_path / "once")]
        if certified:
            argv += ["--certificate", str(affine_cert)]
        assert main(argv) == 0
        assert built == [100]
        summary = json.loads((tmp_path / "once" / "summary.json").read_text())
        assert summary["trajectories"] == 12
        assert ("violations" in summary) == certified

    def test_rows_match_integrate_and_summary_matches_check_absorption(
            self, affine_cert, tmp_path):
        out = tmp_path / "rows"
        h, horizon, grid = 0.005, 3.0, "-3:3:2,-4:4:2"
        code = main(["simulate", str(SYSTEMS / "affine_pair.sys"),
                     "--signals", "2", "--seed", "5", "--mean-dwell", "0.3",
                     f"--x0-grid={grid}", "--horizon", str(horizon),
                     "--step", str(h), "--certificate", str(affine_cert),
                     "--adversarial", "--out", str(out)])
        assert code == 0
        system = load_system(str(SYSTEMS / "affine_pair.sys"))
        cert = load_certificate(str(affine_cert))
        starts = cli._parse_grid(grid, 2)
        signals = [sim.random_switching(2, horizon, 0.3, 5 + k)
                   for k in range(2)]
        signals.append(sim.adversarial_switching(system, cert.lyapunov,
                                                 starts[0], h, horizon))
        for s_idx, signal in enumerate(signals):
            for t_idx, start in enumerate(starts):
                alone = sim.integrate(system, signal, start, h, horizon)
                rows = np.loadtxt(out / f"trajectory_{s_idx:03d}_{t_idx:03d}"
                                  ".csv", delimiter=",", skiprows=1)
                assert np.array_equal(rows[:, 0], alone.times)
                assert np.array_equal(rows[:, 1], alone.active)
                # the batch rounds its products apart from a single
                # column: agreement is relative to the state's norm
                scale = np.linalg.norm(alone.states, axis=1)[:, None]
                assert np.all(np.abs(rows[:, 2:] - alone.states)
                              <= 1e-13 * scale)

        report = sim.check_absorption(system, cert, starts, signals, h=h,
                                      horizon=horizon)
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {
            "trajectories": 12, "signals": 3, "diverged": 0, "seed": 5,
            "violations": report.violations,
            "not_entered": report.not_entered,
            "max_post_entry_excess": report.max_post_entry}

    def test_absorption_summary_with_certificate(self, affine_cert, tmp_path):
        out = tmp_path / "absorb"
        code = main(["simulate", str(SYSTEMS / "affine_pair.sys"),
                     "--signals", "2", "--seed", "3",
                     "--x0-grid=-2:2:2,-2:2:2", "--horizon", "8",
                     "--step", "0.002", "--certificate", str(affine_cert),
                     "--adversarial", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == 0


class TestCmdLevelset:
    def test_grid_rows_and_header(self, affine_cert, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["levelset", str(affine_cert), "--window=-3:3,-4:4",
                     "--resolution", "50", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "x1,x2,V"
        assert len(rows) == 1 + 50 * 50

    def test_resolution_one_is_window_centre(self, affine_cert, tmp_path):
        out = tmp_path / "centre.csv"
        code = main(["levelset", str(affine_cert), "--window", "1:3,2:6",
                     "--resolution", "1", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 2
        x1, x2, _ = (float(tok) for tok in rows[1].split(","))
        assert (x1, x2) == (2.0, 4.0)

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_resolution_below_one_is_usage_error(self, affine_cert, tmp_path,
                                                 capsys, resolution):
        out = tmp_path / "none.csv"
        code = main(["levelset", str(affine_cert),
                     f"--resolution={resolution}", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_default_window_matches_reported_frame(self, affine_cert,
                                                   tmp_path):
        out = tmp_path / "default.csv"
        code = main(["levelset", str(affine_cert), "--resolution", "2",
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        corners = {tuple(float(t) for t in row.split(",")[:2])
                   for row in rows[1:]}
        assert corners == {(-3.0, -4.0), (-3.0, 4.0), (3.0, -4.0), (3.0, 4.0)}

    def test_missing_certificate_exit_code(self, tmp_path):
        assert main(["levelset", str(tmp_path / "nope.cert")]) == 1

    def test_slice_beyond_the_dimension_is_usage_error(self, affine_cert,
                                                       tmp_path, capsys):
        out = tmp_path / "none.csv"
        code, _, err = _run(["levelset", str(affine_cert), "--slice", "9,9",
                             "--resolution", "2", "--out", str(out)], capsys)
        assert code == 1
        assert err == "error: bad --slice '9,9'\n"
        assert not out.exists()

    def test_slice_of_a_3d_certificate(self, tmp_path):
        cert = tmp_path / "three.cert"
        cert.write_text("dim 3\nsubsystems 1\nell 1\ndelta 1\nbeta 0\n"
                        "gamma 1\nV = x1^2 + 2*x2^2 + 3*x3^2 + x1*x3\n")
        out = tmp_path / "slice.csv"
        code = main(["levelset", str(cert), "--slice", "1,3",
                     "--resolution", "3", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "x1,x2,x3,V"
        table = np.array([[float(tok) for tok in row.split(",")]
                          for row in rows[1:]])
        # the default window of a 2-D slice
        assert table.shape == (9, 4)
        assert np.all(table[:, 1] == 0.0)
        assert set(table[:, 0]) == {-3.0, 0.0, 3.0}
        assert set(table[:, 2]) == {-4.0, 0.0, 4.0}

    @pytest.fixture
    def cert_4d(self, tmp_path):
        path = tmp_path / "four.cert"
        path.write_text("dim 4\nsubsystems 1\nell 1\ndelta 1\nbeta 0\n"
                        "gamma 1\nV = x1^2 + 2*x2^2 + 3*x3^2 + 4*x4^2 "
                        "+ x1*x3 + x2*x4 + x4^3\n")
        return path

    def test_slice_fixes_the_other_coordinates_at_zero(self, cert_4d,
                                                       tmp_path):
        out = tmp_path / "slice.csv"
        code = main(["levelset", str(cert_4d), "--slice", "2,4",
                     "--window=-1:1,-2:2", "--resolution", "3",
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "x1,x2,x3,x4,V"
        table = np.array([[float(tok) for tok in row.split(",")]
                          for row in rows[1:]])
        assert table.shape == (9, 5)
        assert np.all(table[:, [0, 2]] == 0.0)
        assert set(table[:, 1]) == {-1.0, 0.0, 1.0}
        assert set(table[:, 3]) == {-2.0, 0.0, 2.0}
        V = load_certificate(str(cert_4d)).lyapunov
        assert np.array_equal(
            table[:, 4], V.evaluate_many(np.ascontiguousarray(table[:, :4])))

    @pytest.mark.parametrize("flags, message", [
        ([], "dimension above 3 requires --slice i,j (remaining coordinates "
             "fixed at 0)"),
        (["--slice", "1"], "bad --slice '1'"),
        (["--slice", "0,2"], "bad --slice '0,2'"),
        (["--slice", "1,5"], "bad --slice '1,5'"),
        (["--slice", "a,b"], "bad --slice 'a,b'"),
        (["--slice", "2,2"], "bad --slice '2,2'"),
        (["--slice", "1,2", "--window=-1:1,-1:1,-1:1"],
         "window has 3 axes, expected 2"),
    ], ids=["no-slice", "one-axis", "axis-0", "axis-5", "not-integers",
            "equal-axes", "window-axes"])
    def test_bad_slice_is_usage_error(self, cert_4d, tmp_path, capsys, flags,
                                      message):
        out = tmp_path / "none.csv"
        code, _, err = _run(["levelset", str(cert_4d), "--resolution", "2",
                             "--out", str(out)] + flags, capsys)
        assert code == 1
        assert err == f"error: {message}\n"
        assert not out.exists()


def _run(argv, capsys):
    """(exit code, stdout, stderr) of one in-process run; argparse's own
    exits arrive as SystemExit, any other escaping exception fails the
    test as a traceback would."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


_NO_GAMMA_CERT = ("dim 2\nsubsystems 2\nell 2\ndelta 1\nbeta 3.3\n"
                  "V = x1^4 + x2^4\n")


class TestExitCodes:
    AFFINE = str(SYSTEMS / "affine_pair.sys")
    LINEAR = str(SYSTEMS / "linear_pair.sys")

    def test_huge_beta_is_one_numerical_failure_line(self, tmp_path):
        # beta = 1e200 puts entries whose squares overflow into the
        # sublevel program; the run, in its own process so that a
        # RuntimeWarning would reach stderr, ends in exit 3 and one
        # `prefix: message` line
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "switchcert.cli", "certify", self.LINEAR,
             "--ell", "1", "--beta", "1e200",
             "--out", str(tmp_path / "huge.cert")],
            capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode == 3
        assert len(run.stderr.splitlines()) == 1
        assert run.stderr.startswith("numerical failure: ")

    def test_underflowing_identity_is_a_verification_failure(self, tmp_path,
                                                              capsys):
        # the constant 1e200 makes the decay identity's coefficients span
        # about 190 decades; the membership check's scaling underflows its
        # terms of degree 2 to 4 to zero, leaving a degree-1 polynomial that
        # must fail as odd top degree (exit 4), not reach gram_basis as a
        # usage error (exit 1)
        system = tmp_path / "underflow.sys"
        system.write_text(
            "dim 3\nsubsystems 1\nsubsystem 1\n"
            "- 1*x1*x3 + 2*x1*x2*x3 + 1e-12*x1 + -4.11*x2\n"
            "-0*x2*x3 - 4*x1*x2\n"
            "0.1*x1*x2 + 0.5*x1*x3 + 1e200*1\n")
        code, out, err = _run(
            ["certify", str(system), "--ell", "1", "--delta", "1e-9",
             "--degree-cap", "6", "--beta", "0",
             "--out", str(tmp_path / "x.cert")], capsys)
        assert code == 4
        assert "identity-decay1 (odd top degree 1: not a sum of squares)" \
            in out
        assert err.startswith("verification failed: certificate rejected: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["certify", AFFINE, "--ell", "abc"],
        [],
        ["nosuch"],
        ["certify"],
        ["certify", AFFINE, "--homogeneous"],
    ], ids=["bad-int", "no-subcommand", "unknown-subcommand",
            "missing-positional", "removed-flag"])
    def test_argparse_usage_error_is_code_1(self, capsys, argv):
        code, _, err = _run(argv, capsys)
        assert code == 1
        assert "Traceback" not in err
        assert "error:" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = _run(["certify", "--help"], capsys)
        assert code == 0
        assert "usage:" in out

    @pytest.mark.parametrize("argv, message", [
        (["certify", AFFINE, "--ell", "0"],
         "error: ell must be a positive integer"),
        (["certify", AFFINE, "--degree", "3", "--delta", "1"],
         "error: degree must be even and at least 2*ell"),
        (["certify", AFFINE, "--beta", "-1"],
         "error: beta must be non-negative"),
        (["certify", AFFINE, "--delta", "0"], "error: delta must be positive"),
        (["certify", AFFINE, "--seed", "-1"],
         "error: --seed must be a non-negative integer"),
        (["verify", AFFINE, "{cert}", "--seed", "-2"],
         "error: --seed must be a non-negative integer"),
        (["simulate", AFFINE, "--signals", "1", "--seed", "-3",
          "--x0-grid", "1:1:1,0:0:1", "--horizon", "1",
          "--out", "{tmp}/sim"],
         "error: --seed must be a non-negative integer"),
        (["simulate", AFFINE, "--signals", "1", "--x0-grid", "1:1:1,0:0:1",
          "--horizon", "1", "--certificate", "{tmp}/nogamma.cert",
          "--out", "{tmp}/sim"],
         "error: certificate has no gamma level"),
        (["simulate", str(SYSTEMS / "affine_triple.sys"), "--signals", "1",
          "--x0-grid", "1:1:1,0:0:1", "--horizon", "1",
          "--certificate", "{cert}", "--out", "{tmp}/sim"],
         "error: certificate does not match system dimensions"),
        (["certify", AFFINE, "--ell", "2", "--beta", "3.3", "--degree", "4",
          "--out", "{tmp}/missing/x.cert"],
         "error: [Errno 2] No such file or directory"),
        (["levelset", "{cert}", "--resolution", "2",
          "--out", "{tmp}/missing/l.csv"],
         "error: [Errno 2] No such file or directory"),
        (["simulate", AFFINE, "--signals", "1", "--x0-grid", "1:1:1,0:0:1",
          "--horizon", "1", "--out", "{tmp}/afile/sim"],
         "error: [Errno 20] Not a directory"),
        (["simulate", AFFINE, "--signals", "-2", "--x0-grid", "1:1:1,0:0:1",
          "--horizon", "1", "--out", "{tmp}/sim"],
         "error: --signals must be a non-negative integer"),
        (["simulate", AFFINE, "--signals", "1",
          "--x0-grid=1e300:1e300:1,0:1:2", "--horizon", "1",
          "--certificate", "{cert}", "--out", "{tmp}/sim"],
         "error: initial state [1e+300, 0.0] must be finite with norm at "
         "most 1e+12"),
    ], ids=["ell-0", "odd-degree", "negative-beta", "zero-delta",
            "certify-seed", "verify-seed", "simulate-seed",
            "simulate-no-gamma", "simulate-mismatch", "certify-out",
            "levelset-out", "simulate-out", "simulate-signals",
            "simulate-beyond-guard"])
    def test_failure_is_one_error_line_and_code_1(self, affine_cert,
                                                  tmp_path, capsys, argv,
                                                  message):
        (tmp_path / "nogamma.cert").write_text(_NO_GAMMA_CERT)
        (tmp_path / "afile").write_text("")
        argv = [arg.format(cert=affine_cert, tmp=tmp_path) for arg in argv]
        code, _, err = _run(argv, capsys)
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(message)
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["levelset", "simulate"])
    def test_non_finite_bound_is_usage_error(self, affine_cert, tmp_path,
                                             capsys, command, bound):
        # the bad chunk is named; no output is written
        if command == "levelset":
            chunk = f"{bound}:1"
            argv = ["levelset", str(affine_cert), f"--window={chunk},-4:4",
                    "--out", str(tmp_path / "l.csv")]
        else:
            chunk = f"{bound}:1:2"
            argv = ["simulate", self.AFFINE, "--signals", "1",
                    f"--x0-grid={chunk},0:1:2", "--horizon", "1",
                    "--certificate", str(affine_cert),
                    "--out", str(tmp_path / "sim")]
        code, _, err = _run(argv, capsys)
        kind = "window" if command == "levelset" else "grid"
        assert code == 1
        assert err == f"error: non-finite bound in {kind} chunk {chunk!r}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bounds, count", [("-1e308:1e308", 3),
                                               ("1e308:1.7e308", 1)],
                             ids=["width", "midpoint"])
    @pytest.mark.parametrize("command", ["levelset", "simulate"])
    def test_overflowing_axis_is_usage_error(self, affine_cert, tmp_path,
                                             capsys, command, bounds, count):
        # finite bounds whose width or grid points overflow: the chunk is
        # named, and no NaN or inf rows are written
        if command == "levelset":
            chunk = bounds
            argv = ["levelset", str(affine_cert), f"--window={chunk},-4:4",
                    "--resolution", str(count),
                    "--out", str(tmp_path / "l.csv")]
        else:
            chunk = f"{bounds}:{count}"
            argv = ["simulate", self.AFFINE, "--signals", "1",
                    f"--x0-grid={chunk},0:1:2", "--horizon", "1",
                    "--certificate", str(affine_cert),
                    "--out", str(tmp_path / "sim")]
        code, _, err = _run(argv, capsys)
        kind = "window" if command == "levelset" else "grid"
        assert code == 1
        assert err == (f"error: {kind} chunk {chunk!r} overflows: its width "
                       "or a grid point is not finite\n")
        assert not list(tmp_path.iterdir())

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def fail(problem):
            raise AssertionError("solve called")
        monkeypatch.setattr(cert_mod, "solve", fail)

    @pytest.mark.usefixtures("no_solve")
    @pytest.mark.parametrize("flags, message", [
        (["--beta", "3.3", "--delta", "nan"],
         "delta must be positive and finite"),
        (["--beta", "3.3", "--delta", "inf"],
         "delta must be positive and finite"),
        (["--beta", "nan"], "beta must be non-negative and finite"),
        (["--beta", "inf"], "beta must be non-negative and finite"),
        (["--beta-max", "nan"], "beta_max must be non-negative and finite"),
        (["--beta", "3.3", "--q-degree", "-2"],
         "deg_q must be a non-negative integer"),
        (["--beta", "3.3", "--q-degree", "3"], "deg_q must be even"),
    ], ids=["delta-nan", "delta-inf", "beta-nan", "beta-inf", "beta-max-nan",
            "negative-q-degree", "odd-q-degree"])
    def test_bad_query_number_fails_before_any_solve(self, capsys, flags,
                                                     message):
        argv = ["certify", self.AFFINE, "--ell", "2", "--degree", "4"]
        assert _run(argv + flags, capsys) == (1, "", f"error: {message}\n")

    @pytest.mark.usefixtures("no_solve")
    @pytest.mark.parametrize("argv, message", [
        (["certify", LINEAR, "--param", "B=12", "--ell", "1", "--degree", "2",
          "--beta", "0", "--out", "{tmp}/c.cert"],
         "undeclared parameter B (declared: b)"),
        (["certify", LINEAR, "--param", "x2=0", "--ell", "1", "--degree",
          "2", "--beta", "0", "--out", "{tmp}/c.cert"],
         "undeclared parameter x2 (declared: b)"),
        (["verify", LINEAR, "{published}", "--param", "B=12"],
         "undeclared parameter B (declared: b)"),
    ], ids=["certify-typo", "certify-state-variable", "verify-typo"])
    def test_undeclared_param_fails_before_any_solve(self, tmp_path, capsys,
                                                     argv, message):
        # a typo once certified the file's default b = 5, and x2=0
        # substituted 0 for a state variable
        published = REPO / "bench" / "inputs" / "published_linear_pair_b12.cert"
        argv = [arg.format(tmp=tmp_path, published=published) for arg in argv]
        assert _run(argv, capsys) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "c.cert").exists()

    @pytest.mark.usefixtures("no_solve")
    @pytest.mark.parametrize("flags, line, message", [
        (["--param", "b=nan"], "param b=5", "--param b=nan is not finite"),
        (["--param", "b=1e400"], "param b=5",
         "--param b=1e400 is not finite"),
        (["--param", "b=-inf"], "param b=5", "--param b=-inf is not finite"),
        ([], "param b = nan", "parameter b is not finite in 'param b = nan'"),
        ([], "param b=1e400",
         "parameter b is not finite in 'param b=1e400'"),
    ], ids=["flag-nan", "flag-overflow", "flag-inf", "line-nan",
            "line-overflow"])
    def test_non_finite_param_fails_before_any_solve(self, tmp_path, capsys,
                                                     flags, line, message):
        # the formatted value once reached the expression parser, which
        # blamed the file: "subsystem 2: unexpected character 'n'"
        system = tmp_path / "linear_pair.sys"
        system.write_text((SYSTEMS / "linear_pair.sys").read_text().replace(
            "param b=5", line))
        argv = ["certify", str(system), *flags, "--ell", "1", "--degree",
                "2", "--beta", "0", "--out", str(tmp_path / "c.cert")]
        assert _run(argv, capsys) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "c.cert").exists()

    @pytest.mark.usefixtures("no_solve")
    @pytest.mark.parametrize("edit, message", [
        ("delta 0", "delta must be positive and finite"),
        ("delta -1", "delta must be positive and finite"),
        ("delta nan", "delta must be positive and finite"),
        ("gamma inf", "gamma must be finite"),
        ("gamma nan", "gamma must be finite"),
        ("beta nan", "beta must be non-negative and finite"),
        ("beta -1", "beta must be non-negative and finite"),
    ])
    def test_meaningless_certificate_constant_is_usage_error(
            self, affine_cert, tmp_path, capsys, edit, message):
        # these once passed verification (a NaN delta dropped the delta
        # term from every identity) or failed it with code 4
        key = edit.split()[0]
        lines = [edit if line.startswith(key + " ") else line
                 for line in affine_cert.read_text().splitlines()]
        edited = tmp_path / "edited.cert"
        edited.write_text("\n".join(lines) + "\n")
        assert _run(["verify", self.AFFINE, str(edited)], capsys) == (
            1, "", f"error: {message}\n")

    @pytest.mark.parametrize("exc, code, prefix", [
        (NumericalFailureError("stall"), 3, "numerical failure: stall"),
        (GammaInfeasibleError("q"), 3, "numerical failure: q"),
        (np.linalg.LinAlgError("singular"), 3, "numerical failure: singular"),
        (EquilibriumError("origin"), 1, "error: origin"),
    ])
    def test_exit_policy_table(self, monkeypatch, capsys, exc, code, prefix):
        def fail(system, query):
            raise exc
        monkeypatch.setattr(cli, "escalate", fail)
        assert _run(["certify", self.AFFINE], capsys) == (code, "",
                                                           prefix + "\n")

    @pytest.mark.parametrize("argv, message", [
        (["--out", "{tmp}/missing/x.cert"],
         "[Errno 2] No such file or directory: '{tmp}/missing/x.cert'"),
        (["--out", "{tmp}/afile/x.cert"],
         "[Errno 20] Not a directory: '{tmp}/afile/x.cert'"),
        (["--out", "{tmp}/x.cert", "--dump-sdp", "{tmp}/missing/p.dat-s"],
         "[Errno 2] No such file or directory: '{tmp}/missing/p.dat-s'"),
    ], ids=["out", "out-not-a-directory", "dump-sdp"])
    def test_output_paths_checked_before_search(self, monkeypatch, tmp_path,
                                                capsys, argv, message):
        def no_search(system, query):
            raise AssertionError("escalate called")
        monkeypatch.setattr(cli, "escalate", no_search)
        (tmp_path / "afile").write_text("")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert _run(["certify", self.AFFINE] + argv, capsys) == (
            1, "", f"error: {message.format(tmp=tmp_path)}\n")
        assert not (tmp_path / "x.cert").exists()

    def test_certify_rejection_prints_report(self, monkeypatch, capsys):
        class Report:
            failures = ("containment",)

            def summary_lines(self):
                return ["containment: FAIL"]

        def reject(system, query):
            raise CertificateRejectedError(Report())
        monkeypatch.setattr(cli, "escalate", reject)
        assert _run(["certify", self.AFFINE], capsys) == (
            4, "containment: FAIL\n",
            "verification failed: certificate rejected: containment\n")


# coefficients of the generated fields: exact zeros and ones, small
# integers, and magnitudes at the edges of double precision
_COEFFICIENTS = st.sampled_from(
    [0, 1, -1, 2, -2, 3, -5, 1e-12, -1e-12, 1e200, 1e-300])


@st.composite
def _system_texts(draw):
    """System files of dimension 1-2 with 1-2 subsystems, each component
    a sum of monomials of degree at most 3."""
    n, count = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    monomials = [m for m in np.ndindex(*(4,) * n) if sum(m) <= 3]
    lines = [f"dim {n}", f"subsystems {count}"]
    for i in range(count):
        lines.append(f"subsystem {i + 1}")
        for _ in range(n):
            terms = draw(st.lists(st.tuples(_COEFFICIENTS, st.sampled_from(
                monomials)), min_size=1, max_size=4))
            lines.append(" + ".join(
                "*".join([repr(c), *(f"x{j + 1}^{e}" for j, e in enumerate(m)
                                     if e)]) for c, m in terms))
    return "\n".join(lines) + "\n"


class TestGeneratedCertify:
    """cli.main's exit-code contract on generated system files and
    queries: a code in 0-5, no exception or warning out of main, one
    stderr line with the code's prefix on failure and none on success."""

    PREFIXES = {code: prefix for _, code, prefix in cli._EXIT_POLICY}

    @settings(max_examples=100, derandomize=True, database=None,
              deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_system_texts(),
           delta=st.sampled_from(["1e-9", "1e-4", "1"]),
           beta=st.sampled_from(["0", "1"]),
           cap=st.sampled_from(["2", "4"]))
    def test_exit_code_contract(self, tmp_path, text, delta, beta, cap):
        system = tmp_path / "generated.sys"
        system.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["certify", str(system), "--ell", "1",
                         "--delta", delta, "--beta", beta,
                         "--degree-cap", cap,
                         "--out", str(tmp_path / "generated.cert")])
        assert code in range(6)
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1
            assert lines[0].startswith(f"{self.PREFIXES[code]}: ")
