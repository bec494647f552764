"""Exit-code contract, artifact schemas, config merging."""

import json
import math
import os
import re
import subprocess
import sys

from dataclasses import replace

import pytest

import pdmham
from pdmham.catalog import CATALOG
from pdmham.certify import Certificate, CheckResult
from pdmham.cli import build_parser, main
from pdmham.phase import ModelParams

ND_FLAGS = ["--family", "nd", "--n", "3", "--k0", "1", "--k1", "0.5",
            "--k2", "-0.3", "--samples", "60", "--seed", "7"]


def run(argv):
    return main(argv)


def test_list_stable(capsys):
    assert run(["list"]) == 0
    first = capsys.readouterr().out
    assert run(["list"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.count("integrals:") == 9
    for family in ("geodesic", "na_central", "na", "na_prime", "nb",
                   "nc", "nc1", "nc2", "nd"):
        assert family in first


def test_check_pass_writes_certificate(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run(["check", *ND_FLAGS, "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "pass"
    assert cert["family"] == "nd" and cert["n"] == 3.0
    assert "verdict pass" in capsys.readouterr().out


def test_check_stdout_json(capsys):
    code = run(["check", "--family", "geodesic", "--n", "2",
                "--samples", "40"])
    assert code == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "pass"


def test_check_degenerate_n_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["check", "--family", "nd", "--n", "1", "--k0", "1"])
    assert exc.value.code == 2
    assert "n = 1 degenerate (k_n = 0)" in capsys.readouterr().err


@pytest.mark.parametrize("argv,line", [
    (["check", "--family", "nc", "--n", "nan"], "n must be finite, got nan"),
    (["check", "--family", "nc", "--n", "2", "--k1", "inf"],
     "k1 must be finite, got inf"),
    (["xcheck", "--which", "a", "--k2", "nan"], "k2 must be finite, got nan"),
    (["integrate", "--family", "nc", "--n", "2", "--r0", "nan", "--phi0",
      "1", "--pr0", "0", "--pphi0", "1"], "r must be finite, got nan"),
    (["integrate", "--family", "nc", "--n", "2", "--r0", "1", "--phi0", "1",
      "--pr0", "0", "--pphi0=-inf"], "p_phi must be finite, got -inf"),
    (["integrate", "--family", "nc", "--n", "2", "--r0", "1", "--phi0", "1",
      "--pr0", "0", "--pphi0", "-inf"], "p_phi must be finite, got -inf"),
])
def test_non_finite_input_names_the_field_and_its_value(argv, line, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"pdm: error: {line}\n")


def test_check_corrupt_flag_fails_verdict(tmp_path):
    out = tmp_path / "cert.json"
    code = run(["check", *ND_FLAGS, "--corrupt", "Jd2", "--out", str(out)])
    assert code == 1
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "fail"
    names = {c["name"]: c for c in cert["checks"]}
    assert names["bracket:Jd2"]["pass"] is False


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_check_passes_where_the_drift_orbit_falls_into_a_pole(seed, capsys):
    # from these start points the orbit falls into the attractive k2 < 0
    # pole and stops as StepFailure; there H, Ja2 and Ja3 are differences
    # of terms about 1e9 in size, which bound how well they can be held
    code = run(["check", "--family", "na", "--n", "3", "--k0", "1",
                "--k1", "0.5", "--k2", "-0.3", "--seed", seed])
    cert = json.loads(capsys.readouterr().out)
    drift = {c["name"]: c for c in cert["checks"]}["drift"]
    assert drift["note"].startswith("StepFailure")
    assert drift["pass"] is True
    assert code == 0


def test_check_requires_family():
    with pytest.raises(SystemExit) as exc:
        run(["check", "--n", "2"])
    assert exc.value.code == 2


def test_check_rejects_unknown_family():
    with pytest.raises(SystemExit) as exc:
        run(["check", "--family", "nx", "--n", "2"])
    assert exc.value.code == 2


def test_integrate_straight_line_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run(["integrate", "--family", "geodesic", "--n", "0",
                "--r0", "1", "--phi0", "0", "--pr0", "1", "--pphi0", "0",
                "--t-end", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,r,phi,p_r,p_phi,H,P1,P2,Pphi"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(2.0)
    assert last[1] == pytest.approx(3.0, abs=1e-8)
    assert len(lines) >= 3
    summary = capsys.readouterr().out
    assert "Completed" in summary and "drift" in summary


def test_integrate_summary_appends_step_counters(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run(["integrate", "--family", "nc", "--n", "2", "--k0", "-1",
                "--r0", "1", "--phi0", "0.5", "--pr0", "0.1", "--pphi0",
                "0.9", "--t-end", "5", "--out", str(out)])
    assert code == 0
    summary = capsys.readouterr().out.strip()
    m = re.fullmatch(
        r"nc n=2: Completed at t=5, (\d+) steps \((\d+) rejected\) -> \S+; "
        r"worst relative drift \S+ \(heuristic scale 5\.0e-09\); "
        r"(\d+) field evaluations; rejected (\d+) by the error test, "
        r"(\d+) by an invalid stage; "
        r"step size min (\S+) median (\S+) max (\S+)", summary)
    assert m is not None, summary
    accepted, rejected, _, by_error, by_invalid = map(int, m.groups()[:5])
    h_min, h_median, h_max = map(float, m.groups()[5:])
    assert by_error + by_invalid == rejected
    assert len(out.read_text().splitlines()) == accepted + 2
    assert 0.0 < h_min <= h_median <= h_max <= 1.0


def test_integrate_missing_state_flag():
    with pytest.raises(SystemExit) as exc:
        run(["integrate", "--family", "geodesic", "--n", "0",
             "--phi0", "0", "--pr0", "1", "--pphi0", "0"])
    assert exc.value.code == 2


def test_integrate_abort_writes_partial_csv(tmp_path, capsys):
    out = tmp_path / "partial.csv"
    code = run(["integrate", "--family", "nc", "--n", "0", "--k0", "-1",
                "--r0", "1", "--phi0", "1", "--pr0", "0", "--pphi0", "0",
                "--out", str(out)])
    assert code == 3
    lines = out.read_text().strip().splitlines()
    assert len(lines) > 2
    assert "SingularityApproach" in capsys.readouterr().out


@pytest.mark.parametrize("which", ["a", "b", "c", "d"])
def test_xcheck_tags_pass(which, capsys):
    code = run(["xcheck", "--which", which, "--samples", "200"])
    assert code == 0
    out = capsys.readouterr().out
    assert f"tag {which}" in out and "pass" in out


def test_xcheck_unknown_tag():
    with pytest.raises(SystemExit) as exc:
        run(["xcheck", "--which", "q"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--which", "a", "--k1", "10"],
    ["--which", "c", "--k1", "100"],
    ["--which", "a", "--k0", "1e200", "--k1", "1e200", "--samples", "50"],
    # large terms of opposite sign, whose sum U is far smaller than they are
    ["--which=b", "--k0=1", "--k1=1e6", "--k2=-1e6"],
    ["--which=c", "--k0=-1e6", "--k1=1e6", "--k2=1e6"],
])
def test_xcheck_gap_is_relative_to_the_terms(flags, capsys):
    # correct code whose absolute gap |U - V| is roundoff of large terms
    assert run(["xcheck", *flags]) == 0
    assert "max relative |U - V|" in capsys.readouterr().out


@pytest.mark.parametrize("coupling", ["--k0", "--k2"])
def test_xcheck_overflowing_coupling_is_usage_error(coupling, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["xcheck", "--which", "a", coupling, "1e308"])
    assert exc.value.code == 2
    assert "at the sample point (r, phi, p_r, p_phi) = (" in \
        capsys.readouterr().err


# couplings maps that each break one term of the catalog's reduction
WRONG_MAPS = {
    "na": lambda p: (p.k0, p.k1, p.k2),                 # without the 2
    "nb": lambda p: (2.0 * p.k0, p.k1, p.k2),           # k2 not flipped
    "nd": lambda p: (p.k0, p.k1 / math.sqrt(2.0),       # k2 not flipped
                     p.k2 / math.sqrt(2.0)),
}


@pytest.mark.parametrize("family", sorted(WRONG_MAPS))
def test_xcheck_fails_a_wrong_couplings_map(family, monkeypatch, capsys):
    fam = CATALOG[family]
    monkeypatch.setitem(CATALOG, family, replace(fam, reduction=replace(
        fam.reduction, couplings=WRONG_MAPS[family])))
    tag = fam.reduction.tag
    assert run(["xcheck", "--which", tag, "--samples", "200"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "family": "nd", "n": 3, "k0": 1.0, "k1": 0.5, "k2": -0.3,
        "samples": 40, "seed": 7, "out": str(tmp_path / "a.json"),
    }))
    assert run(["check", "--config", str(cfg)]) == 0
    written = json.loads((tmp_path / "a.json").read_text())
    assert written["family"] == "nd"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"which": "a", "samples": 50}))
    assert run(["xcheck", "--config", str(cfg), "--which", "d"]) == 0
    assert "tag d" in capsys.readouterr().out


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "nd", "n": 3, "oops": 1}))
    with pytest.raises(SystemExit) as exc:
        run(["check", "--config", str(cfg)])
    assert exc.value.code == 2


def test_config_malformed_json_rejected(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        run(["check", "--config", str(cfg)])
    assert exc.value.code == 2


def test_seed_defaults_to_zero_and_config_sets_it(tmp_path, capsys):
    argv = ["xcheck", "--which", "a", "--samples", "50"]
    outputs = []
    for extra in ([], ["--seed", "0"], ["--seed", "3"]):
        assert run([*argv, *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != outputs[2]
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"seed": 3}))
    assert run([*argv, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == outputs[2]


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["check", "--family", "nc", "--n", "2", "--k0", "-1", "--samples", "0"],
    ["integrate", "--family", "geodesic", "--n", "0", "--r0", "1",
     "--phi0", "0", "--pr0", "1", "--pphi0", "0", "--t-end", "-1"],
    ["check", "--family", "nc", "--n", "2", "--k0", "-1", "--samples", "20",
     "--out", "{missing}/cert.json"],
    ["integrate", "--family", "geodesic", "--n", "0", "--r0", "1",
     "--phi0", "0", "--pr0", "1", "--pphi0", "0", "--t-end", "1",
     "--out", "{missing}/traj.csv"],
    # non-finite integrator settings: without the check, inf never returns,
    # nan aborts at t = 0 and an infinite atol passes unchecked
    *(["integrate", "--family", "na_central", "--n", "2", "--k0", "0.5",
       "--r0", "1", "--phi0", "0.3", "--pr0", "0.1", "--pphi0", "0.5",
       "--out", "{tmp}/traj.csv", flag, value]
      for flag, value in (("--t-end", "inf"), ("--rtol", "nan"),
                          ("--atol", "inf"))),
])
def test_input_errors_exit_2_without_traceback(argv, tmp_path):
    argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path)
            for a in argv]
    src = os.path.dirname(os.path.dirname(pdmham.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "pdmham.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_integrate_non_integer_n_exits_without_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(pdmham.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "pdmham.cli", "integrate", "--family", "nc",
         "--n", "-0.5", "--k0", "-1", "--k1", "0.3", "--k2", "-0.2",
         "--r0", "0.02", "--phi0", "0.5", "--pr0", "-3", "--pphi0", "0.1",
         "--t-end", "1", "--out", str(tmp_path / "traj.csv")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in (0, 3), proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_finite_residuals_are_strict_json(tmp_path, monkeypatch):
    # an overflowing residual reaches the file as null, not NaN or Infinity
    checks = (CheckResult("bracket:J2", math.inf, 1e-10, False),
              CheckResult("negative_control", math.nan, 1e-3, False))
    monkeypatch.setattr(pdmham.cli, "certificate", lambda *_, **__: Certificate(
        ModelParams("nc", 2.0), checks, "fail"))
    out = tmp_path / "cert.json"
    code = run(["check", "--family", "nc", "--n", "2", "--samples", "20",
                "--out", str(out)])
    assert code == 1

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    cert = json.loads(out.read_text(), parse_constant=reject)
    residuals = {c["name"]: c["max_residual"] for c in cert["checks"]}
    assert residuals["bracket:J2"] is None
    assert residuals["negative_control"] is None


@pytest.mark.parametrize("flags,message", [
    (["--family", "nc", "--k0", "1e308", "--samples", "20"],
     "H is inf at the sample point"),
    (["--family", "nd", "--k1", "1e160", "--samples", "20"],
     "a check overflows"),
    # H stays finite at these four points while brackets with it are NaN
    (["--family", "nc", "--k0", "1e308", "--samples", "4", "--seed", "0"],
     "residual is nan at the sample point (r, phi, p_r, p_phi) = ("),
])
def test_check_overflowing_coupling_is_usage_error(capsys, flags, message):
    with pytest.raises(SystemExit) as exc:
        run(["check", *flags, "--n", "2"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command,config", [
    ("check", {"family": "nc", "n": [2]}),
    ("check", {"family": "nc", "n": 2, "k0": {"a": 1}}),
    ("check", {"family": "nc", "n": 2, "samples": math.inf}),
    ("integrate", {"family": "nc", "n": 2, "r0": [1], "phi0": 0.5,
                   "pr0": 0.1, "pphi0": 0.8, "t_end": 0.1}),
])
def test_config_value_of_the_wrong_kind_is_usage_error(tmp_path, capsys,
                                                       command, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_check_geodesic_n_equal_one_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["check", "--family", "geodesic", "--n", "1", "--samples", "20"])
    assert exc.value.code == 2
    assert "P2 = -Pphi" in capsys.readouterr().err


def test_xcheck_zero_samples_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["xcheck", "--which", "a", "--samples", "0"])
    assert exc.value.code == 2
    assert "count must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value",
                         ["-1e-3", "-2.5E+1", "-.5e2", "-inf", "-nan"])
@pytest.mark.parametrize("command", ["check", "xcheck"])
def test_negative_number_as_its_own_word_is_a_value(command, value):
    args = build_parser().parse_args([command, "--k0", value])
    assert repr(args.k0) == repr(float(value))


def test_a_word_that_is_no_number_still_reads_as_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["check", "--family", "nc", "--n", "2", "--k0", "-1e"])
    assert exc.value.code == 2
    assert "argument --k0: expected one argument" in capsys.readouterr().err


# main shares one parser between calls; a --config call must not leave its
# values behind as the next call's defaults

def _integrate_nc(tmp_path):
    return ["integrate", "--family", "nc", "--n", "2", "--k0", "-1",
            "--r0", "1", "--phi0", "0.5", "--pr0", "0", "--pphi0", "1",
            "--out", str(tmp_path / "traj.csv")]


def test_integrate_config_does_not_reach_the_next_call(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"t_end": 2}))
    argv = _integrate_nc(tmp_path)
    assert run([*argv, "--config", str(cfg)]) == 0
    assert "Completed at t=2," in capsys.readouterr().out
    assert run(argv) == 0
    assert "Completed at t=50," in capsys.readouterr().out


def test_check_config_does_not_reach_the_next_call(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"samples": 40}))
    argv = ["check", "--family", "nc", "--n", "2", "--k0", "-1"]
    assert run([*argv, "--config", str(cfg)]) == 0
    assert "full rank at 100.0% of 40 points" in capsys.readouterr().out
    assert run(argv) == 0
    assert "full rank at 100.0% of 200 points" in capsys.readouterr().out


@pytest.mark.parametrize("bad", [
    ["check", "--family", "nc", "--n", "2", "--samples", "x"],
    ["xcheck", "--which", "a", "--seed", "3", "--config", "{cfg}"],
])
def test_usage_error_leaves_the_next_call_as_it_was(bad, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"samples": 50, "oops": 1}))
    good = ["xcheck", "--which", "a", "--samples", "50"]
    assert run(good) == 0
    before = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run([a.format(cfg=cfg) for a in bad])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(good) == 0
    assert capsys.readouterr().out == before


def test_the_same_argv_twice_gives_the_same_output(tmp_path, capsys):
    argv = _integrate_nc(tmp_path) + ["--t-end", "5"]
    outputs = []
    for _ in range(2):
        assert run(argv) == 0
        outputs.append((capsys.readouterr(),
                        (tmp_path / "traj.csv").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.xfail(
    strict=True,
    reason="the negative control corrupts nc's integrals by 0.1 times their "
           "couplings-zeroed part J0, and {J0, H} = {J0, U} is proportional "
           "to k0: at k0 = -1e-3 the corrupted residual reads 1.21e-4, under "
           "CONTROL_FLOOR (1e-3) though 6 orders above BRACKET_TOL")
def test_negative_control_passes_correct_formulas_at_a_weak_coupling():
    assert run(["check", "--family", "nc", "--n", "2", "--k0=-1e-3"]) == 0
