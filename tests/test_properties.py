"""Property tests of the two public contracts under hostile input.

`integrate` refuses a bad start with a PdmError and otherwise returns a
trajectory with a termination tag, never raising mid-run.  `pdm` ends with
exit code 0, 1, 2 or 3 and raises nothing else, whatever its `--config`
file holds, and a failed verdict (1) never rests on a non-finite H,
integral or `xcheck` gap; a certificate never rests on a non-finite
residual.  `pdm xcheck` passes on correct code at couplings of any sign
and of sizes from 1e-6 to 1e6.
"""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pdmham.cli
from pdmham.certify import SampleConfig, certificate
from pdmham.cli import main
from pdmham.dynamics import (COMPLETED, SINGULARITY, STEP_FAILURE,
                             IntegratorConfig, integrate)
from pdmham.errors import PdmError
from pdmham.phase import (FAMILIES, DomainBox, ModelParams, PhasePoint,
                          check_point, sample_points)
from pdmham.tracing import monitors

EXPONENTS = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0]),
                      st.floats(-3.0, 4.0))
COUPLINGS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([1e308, -1e308]))
STATES = st.tuples(st.floats(-0.5, 4.0), st.floats(-7.0, 7.0),
                   st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(FAMILIES), n=EXPONENTS,
       couplings=st.tuples(COUPLINGS, COUPLINGS, COUPLINGS), state=STATES,
       t_end=st.floats(0.01, 1.0))
def test_integrate_refuses_up_front_or_returns_a_tagged_trajectory(
        family, n, couplings, state, t_end):
    try:
        params = ModelParams(family, n, *couplings)
    except PdmError:
        return
    initial = PhasePoint(*state)
    try:
        traj = integrate(params, initial, IntegratorConfig(t_end=t_end))
    except PdmError:
        return
    check_point(initial, params)
    assert traj.termination in (COMPLETED, SINGULARITY, STEP_FAILURE)
    assert len(traj) == traj.n_accepted + 1


def _require_finite_monitors(params, sample):
    _, row = monitors(params)
    for pt in sample_points(params, sample.box, sample.count):
        assert all(map(math.isfinite, row(*pt.as_tuple()))), (params, pt)


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(FAMILIES),
       n=st.sampled_from([-1.0, 0.0, 0.5, 2.0, 3.0]),
       couplings=st.tuples(*3 * [st.one_of(
           st.floats(-2.0, 2.0), st.sampled_from([1e308, -1e308, 1e160]))]),
       box_seed=st.integers(0, 3))
# H is finite at these four points but brackets with it are NaN
@example(family="nc", n=2.0, couplings=(1e308, 0.0, 0.0), box_seed=0)
def test_certificate_refuses_overflow_or_rests_on_finite_values(
        family, n, couplings, box_seed):
    params = ModelParams(family, n, *couplings)
    sample = SampleConfig(count=4, box=DomainBox(seed=box_seed))
    try:
        cert = certificate(params, sample, IntegratorConfig(t_end=0.01))
    except PdmError:
        return
    _require_finite_monitors(params, sample)
    for check in cert.checks:
        assert check.passed is None or math.isfinite(check.max_residual), (
            check)


# each flag's (valid, hostile) values
VALUES = {
    "--family": (["nc", "nd", "geodesic", "na_central"], ["nx"]),
    "--n": (["2", "3", "-1", "0.5", "0"], ["1", "nan"]),
    "--k0": (["0.5", "-1"], ["1e308", "-1e308", "inf"]),
    "--k1": (["0.25", "0"], ["-0.3", "1e308"]),
    "--k2": (["0.125", "0"], ["-1e308", "1e308"]),
    "--samples": (["4", "12"], ["0", "-3", "2.5"]),
    "--seed": (["0", "7"], ["1.5", "x"]),
    "--corrupt": ([], ["J2", "Jd2", "P1", "nope"]),
    "--r0": (["1", "0.6"], ["0.02", "0", "-1"]),
    "--phi0": (["0.7", "2"], ["0", "1e308"]),
    "--pr0": (["0.3", "-0.2"], ["-3"]),
    "--pphi0": (["0.4", "0"], ["30"]),
    "--t-end": (["0.5", "1"], ["0", "-1", "inf"]),
    "--rtol": (["1e-10", "1e-6"], ["0", "nan"]),
    "--atol": (["1e-12"], ["-1", "inf"]),
    "--which": (["a", "b", "c", "d"], ["q"]),
    "--out": (["{tmp}/out"], ["{tmp}/missing/out"]),
    "--bogus": ([], ["1"]),
}
# the flags each subcommand draws from; the first ones of check and
# integrate are always given, so that no run falls back to a long default
FLAGS = {
    "list": ([], ["--bogus"]),
    "check": (["--samples"], ["--family", "--n", "--k0", "--k1", "--k2",
                              "--seed", "--corrupt", "--out", "--bogus"]),
    "integrate": (["--t-end"], ["--family", "--n", "--k0", "--k1", "--k2",
                                "--r0", "--phi0", "--pr0", "--pphi0",
                                "--rtol", "--atol", "--out", "--bogus"]),
    "xcheck": (["--samples"], ["--which", "--k0", "--k1", "--k2", "--seed",
                               "--bogus"]),
}


# what a config file may hold where a flag value belongs, beside valid
# values: arrays, objects, huge numbers and nulls
HOSTILE_CONFIG = st.one_of(
    st.lists(st.floats(-2.0, 2.0), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(-2, 2), max_size=2),
    st.sampled_from([1e308, -1e308, None]))


def _json_value(text):
    """A flag's value as a config file would hold it."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    always, maybe = FLAGS[command]
    argv = [command]
    config = {}
    for flag in always + maybe:
        # one time in sixteen a flag gets a hostile value, and one time in
        # sixteen an optional one is left out, so many runs get past the
        # usage checks; four times in sixteen an optional flag moves to the
        # config file, where fate 13 swaps its value for a hostile one
        fate = draw(st.integers(0, 15))
        values = VALUES[flag][1 if fate == 14 else 0]
        if not values or (fate == 15 and flag not in always):
            continue
        value = draw(st.sampled_from(values))
        if command != "list" and flag not in always and fate >= 11:
            key = flag[2:].replace("-", "_")
            config[key] = (draw(HOSTILE_CONFIG) if fate == 13
                           else _json_value(value))
            continue
        # `--flag=value`, so that argparse reads -1e308 as a value
        argv.append(f"{flag}={value}")
    if config:
        argv.append("--config={tmp}/config.json")
    return argv, config


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=argvs())
# V overflows at every point, which makes each relative gap NaN
@example(case=(["xcheck", "--samples=4", "--which=a", "--k0=1e308"], {}))
def test_pdm_exits_with_a_contract_code(case, tmp_path, monkeypatch):
    argv, config = case
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PDM_SEED", raising=False)
    (tmp_path / "config.json").write_text(
        json.dumps(config).replace("{tmp}", str(tmp_path)))
    argv = [a.format(tmp=tmp_path) for a in argv]
    certified = []

    def recording(params, sample, **kwargs):
        certified.append((params, sample))
        return certificate(params, sample, **kwargs)

    # the fixture is not undone between examples, so wrap the library's
    # own function, never the attribute a previous example replaced
    monkeypatch.setattr(pdmham.cli, "certificate", recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    if code == 1 and certified:
        _require_finite_monitors(*certified[0])
    if code == 1 and argv[0] == "xcheck":
        gap = out.getvalue().split(" = ")[1].split()[0]
        assert math.isfinite(float(gap)), argv


# zero, or either sign at a size from 1e-6 to 1e6
XCHECK_COUPLINGS = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, power: sign * 10.0 ** power,
              st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 6.0)))


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from("abcd"), k0=XCHECK_COUPLINGS,
       k1=XCHECK_COUPLINGS, k2=XCHECK_COUPLINGS, samples=st.integers(1, 50),
       seed=st.integers(0, 50))
# large terms of opposite sign that cancel in U and V
@example(which="b", k0=1.0, k1=1e6, k2=-1e6, samples=1000, seed=0)
@example(which="c", k0=-1e6, k1=1e6, k2=1e6, samples=1000, seed=0)
def test_xcheck_passes_at_couplings_of_any_sign_and_size(
        which, k0, k1, k2, samples, seed):
    argv = ["xcheck", f"--which={which}", f"--k0={k0!r}", f"--k1={k1!r}",
            f"--k2={k2!r}", f"--samples={samples}", f"--seed={seed}"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
