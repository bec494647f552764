"""Fast self-test of the benchmark: one small op per workload, and proof
that each output check rejects a bad output.

    python3 -m pytest -q perfbench
"""

import shutil
import subprocess
import sys

import pytest

import oracle
import run
import workloads

PDM = run.load_program()


def _short_integrate(workload):
    case = workloads.make_cases(workload, 1)[-1]
    return workloads._integrate_case(
        case["family"], case["n"], (case["k0"], case["k1"], case["k2"]),
        case["state"], t_end=3.0)


def _small_check(extra=()):
    case = workloads.make_cases("check-dense", 1)[-1]
    case = workloads._check_case(case["family"], case["n"],
                                 (case["k0"], case["k1"], case["k2"]), 40, 7)
    case["argv"] += list(extra)
    return case


@pytest.mark.parametrize("workload", ["integrate-osc", "integrate-kepler"])
def test_integrate_check_rejects_a_perturbed_row(tmp_path, workload):
    case = _short_integrate(workload)
    path = tmp_path / "traj.csv"
    ok, summary, *_ = run.run_op(PDM, case, path)
    assert ok
    assert run.check_output(case, path, summary, 0) == []

    lines = path.read_text().splitlines()
    cols = lines[5].split(",")
    cols[1] = repr(float(cols[1]) * (1.0 + 1e-9))
    lines[5] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    problems = run.check_output(case, path, summary, 0)
    assert any("H column" in p for p in problems)


def test_integrate_check_rejects_missing_rows_and_early_stop(tmp_path):
    case = _short_integrate("integrate-kepler")
    path = tmp_path / "traj.csv"
    ok, summary, *_ = run.run_op(PDM, case, path)
    text = path.read_text()
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    assert any("rows for" in p for p in
               oracle.check_trajectory(short, summary, case))
    stopped = summary.replace("Completed", "SingularityApproach")
    assert any("terminated" in p for p in
               oracle.check_trajectory(text, stopped, case))


def test_certificate_check_rejects_a_corrupted_certificate(tmp_path):
    case = _small_check()
    path = tmp_path / "cert.json"
    ok, summary, *_ = run.run_op(PDM, case, path)
    assert ok
    assert run.check_output(case, path, summary, 3) == []

    bad = _small_check(["--corrupt", "Jd2"])
    ok, summary, *_ = run.run_op(PDM, bad, path)
    assert not ok                        # pdm check exits 1 on a failed verdict
    problems = run.check_output(bad, path, summary, 3)
    assert "verdict 'fail'" in problems
    assert any(p.startswith("bracket:Jd2") for p in problems)


def test_certificate_check_recomputes_brackets_apart(tmp_path, monkeypatch):
    case = _small_check()
    path = tmp_path / "cert.json"
    run.run_op(PDM, case, path)
    text = path.read_text()
    assert any("certificate is for" in p for p in
               oracle.check_certificate(text, dict(case, k1=0.0), 3))
    # the central-difference bracket flags a quantity H does not conserve
    monkeypatch.setattr(oracle, "kepler_integrals", lambda _case: {
        "p_r": lambda r, phi, p_r, p_phi: p_r})
    assert any("central-difference" in p for p in
               oracle.check_certificate(text, case, 3))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
