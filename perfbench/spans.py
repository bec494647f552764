"""Spans around calls into each `pdmham` layer, and the per-layer metrics.

Used only by the traced run (`--trace 1`).  After each op's timed
`cli.main` call, `probe_layers` calls the library functions that op
exercises directly on the same inputs, each inside a span, plus short
loops of the layer primitives.  Spans stay in memory and are written as
JSON lines when the run ends.  No span is recorded inside `src/pdmham`.
"""

import contextlib
import io
import json
import statistics
import time
from unittest import mock

MUL_LOOPS = 20000
FIELD_LOOPS = 300
MONITOR_LOOPS = 100
BRACKET_POINTS = 100
NOETHER_LOOPS = 1000
# the certify layer is idle on the integrate workloads; there it is timed
# on a small certificate of each op's own parameters
PROBE_SAMPLES = 64
PROBE_DRIFT_T_END = 1.0



class Tracer:
    """In-memory spans: name, start, end, parent span, op id, attributes."""

    def __init__(self):
        self.spans = []
        self.op = None

    def add(self, name, start, end, parent=None, count=1, **attrs):
        self.spans.append({"op": self.op, "name": name, "start": start,
                           "end": end, "parent": parent, "count": count,
                           **attrs})
        return len(self.spans) - 1

    def call(self, name, parent, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.add(name, t0, time.perf_counter(), parent)
        return out

    def loop(self, name, parent, count, fn, *args):
        t0 = time.perf_counter()
        for _ in range(count):
            fn(*args)
        self.add(name, t0, time.perf_counter(), parent, count)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span}) + "\n")


def span_cost_ns(samples=10000):
    """Cost of recording one span, on a scratch tracer."""
    scratch = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        now = time.perf_counter()
        scratch.add("x", now, time.perf_counter())
    return (time.perf_counter() - t0) / samples * 1e9


def _dual_primitives(tr, parent, pdm):
    a = pdm.dual.Dual(1.3, (1.0, 0.5, 0.25, 0.125))
    b = pdm.dual.Dual(0.7, (0.1, 0.2, 0.3, 0.4))
    tr.loop("dual.mul", parent, MUL_LOOPS, a.__mul__, b)
    tr.loop("dual.pow", parent, MUL_LOOPS, a.__pow__, 2.5)


def _point_primitives(tr, parent, pdm, params, point, points):
    duals = pdm.dual.seed(*point.as_tuple())
    tr.loop("families.hamiltonian", parent, FIELD_LOOPS,
            pdm.families.hamiltonian, params, *duals)
    tr.loop("dynamics.field", parent, FIELD_LOOPS,
            pdm.dynamics.hamilton_vector_field, params, point)
    monitors = [pdm.observables.integral(params.family, name)
                for name in ("H",) + pdm.observables.family_integrals(
                    params.family)]

    def all_monitors():
        for fn in monitors:
            fn(params, *point.as_tuple())

    tr.loop("observables.monitors", parent, MONITOR_LOOPS, all_monitors)
    j = monitors[1]
    h = pdm.families.hamiltonian
    subset = points[:BRACKET_POINTS]
    t0 = time.perf_counter()
    for pt in subset:
        pdm.brackets.poisson_bracket(j, h, params, pt)
    tr.add("brackets.poisson_bracket", t0, time.perf_counter(), parent,
           len(subset))
    t0 = time.perf_counter()
    for pt in subset:
        pdm.brackets.scaled_residual(j, h, params, pt)
    tr.add("brackets.scaled_residual", t0, time.perf_counter(), parent,
           len(subset))

    def noether():
        pdm.geometry.noether_p1(params.n, *duals)
        pdm.geometry.noether_p2(params.n, *duals)

    tr.loop("geometry.noether", parent, NOETHER_LOOPS, noether)


def _certify_layer(tr, parent, pdm, params, sample):
    """Each public certify check on the certificate's own points."""
    c = pdm.certify
    points = tr.call("phase.sample_points", parent, pdm.phase.sample_points,
                     params, sample.box, sample.count)
    tr.call("certify.bracket_suite", parent, c.bracket_residual_suite,
            params, sample, points)
    tr.call("certify.involution", parent, c.involution_check, params,
            sample=sample, points=points)
    tr.call("certify.independence", parent, c.independence_stats, params,
            sample, points=points)
    tr.call("certify.killing", parent, c.killing_tensor_check, params,
            sample, points)
    tr.call("certify.identity", parent, c.identity_suite, params, sample,
            points)
    if params.family in ("na_prime", "nd"):
        tr.call("certify.evolution", parent, c.evolution_law_check, params,
                sample, points)
    tr.call("certify.corruption", parent, c.corruption_suite, params, sample,
            points)
    return points


def _trajectory(tr, parent, pdm, params, initial, config):
    t0 = time.perf_counter()
    traj = pdm.dynamics.integrate(params, initial, config)
    tr.add("dynamics.integrate", t0, time.perf_counter(), parent,
           accepted=traj.n_accepted, rejected=traj.n_rejected)
    report = tr.call("dynamics.drift_report", parent,
                     pdm.dynamics.drift_report, traj)
    return traj, report


def _cli_self(tr, parent, pdm, argv, answers):
    """Time `cli.main` with its library calls answered from `answers`.

    Subtracting separately timed library calls from the op's time leaves a
    difference of two noisy seconds-long figures; replaying the op with
    the calls already answered times the command layer's own work alone.
    """
    with contextlib.ExitStack() as stack:
        stubs = [stack.enter_context(mock.patch.object(
            pdm.cli, name, return_value=value))
            for name, value in answers.items()]
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        t0 = time.perf_counter()
        pdm.cli.main(argv)
        tr.add("cli.self", t0, time.perf_counter(), parent)
    if not all(stub.called for stub in stubs):
        raise RuntimeError(f"cli.main no longer calls {sorted(answers)}")


def probe_layers(tr, pdm, case, op_span, argv):
    """Call each layer the op uses directly on the op's inputs, in spans.

    `argv` is the op's full argument list, output path included.
    """
    params = pdm.phase.ModelParams(case["family"], case["n"], case["k0"],
                                   case["k1"], case["k2"])
    _dual_primitives(tr, op_span, pdm)
    if case["kind"] == "integrate":
        initial = pdm.phase.PhasePoint(*case["state"])
        config = pdm.dynamics.IntegratorConfig(t_end=case["t_end"],
                                               rtol=1e-10, atol=1e-12)
        traj, report = _trajectory(tr, op_span, pdm, params, initial, config)
        _cli_self(tr, op_span, pdm, argv,
                  {"integrate": traj, "drift_report": report})
        sample = pdm.certify.SampleConfig(
            count=PROBE_SAMPLES, box=pdm.phase.DomainBox(seed=tr.op))
        drift_cfg = pdm.dynamics.IntegratorConfig(t_end=PROBE_DRIFT_T_END)
        points = _certify_layer(tr, op_span, pdm, params, sample)
        tr.call("certify.drift", op_span, lambda: pdm.dynamics.drift_report(
            pdm.dynamics.integrate(params, points[0], drift_cfg)))
        tr.call("certify.certificate", op_span, pdm.certify.certificate,
                params, sample, drift_cfg)
        _point_primitives(tr, op_span, pdm, params, initial, points)
        return
    sample = pdm.certify.SampleConfig(
        count=case["samples"],
        box=pdm.phase.DomainBox(seed=case["sample_seed"]))
    points = _certify_layer(tr, op_span, pdm, params, sample)
    # the certificate's own drift check: t = 10 from the first sample point
    config = pdm.dynamics.IntegratorConfig(t_end=10.0)
    drift = tr.add("certify.drift", time.perf_counter(), None, op_span)
    _trajectory(tr, drift, pdm, params, points[0], config)
    tr.spans[drift]["end"] = time.perf_counter()
    cert = tr.call("certify.certificate", op_span, pdm.certify.certificate,
                   params, sample)
    _cli_self(tr, op_span, pdm, argv, {"certificate": cert})
    _point_primitives(tr, op_span, pdm, params, points[0], points)


# metric -> (span name, scale of seconds per call)
_PER_CALL = {
    "dual.mul_ns": ("dual.mul", 1e9),
    "dual.pow_ns": ("dual.pow", 1e9),
    "families.hamiltonian_us": ("families.hamiltonian", 1e6),
    "dynamics.field_us": ("dynamics.field", 1e6),
    "observables.monitors_us": ("observables.monitors", 1e6),
    "dynamics.integrate_s": ("dynamics.integrate", 1.0),
    "dynamics.drift_report_ms": ("dynamics.drift_report", 1e3),
    "brackets.bracket_us": ("brackets.poisson_bracket", 1e6),
    "brackets.scaled_residual_us": ("brackets.scaled_residual", 1e6),
    "geometry.noether_us": ("geometry.noether", 1e6),
    "certify.bracket_suite_s": ("certify.bracket_suite", 1.0),
    "certify.involution_s": ("certify.involution", 1.0),
    "certify.independence_s": ("certify.independence", 1.0),
    "certify.killing_s": ("certify.killing", 1.0),
    "certify.identity_s": ("certify.identity", 1.0),
    "certify.evolution_s": ("certify.evolution", 1.0),
    "certify.corruption_s": ("certify.corruption", 1.0),
    "certify.drift_s": ("certify.drift", 1.0),
    "certify.certificate_s": ("certify.certificate", 1.0),
    "phase.sample_ms": ("phase.sample_points", 1e3),
    "cli.self_s": ("cli.self", 1.0),
    "bench.ref_ms": ("bench.ref", 1e3),
}


def layer_metrics(tr, rounds):
    """Per-layer metrics from the spans of a traced run of `rounds` rounds."""
    by_name = {}
    for span in tr.spans:
        by_name.setdefault(span["name"], []).append(span)

    def per_call(name):
        return [(s["end"] - s["start"]) / s["count"] for s in by_name[name]]

    out = {}
    for metric, (name, scale) in _PER_CALL.items():
        out[metric] = (statistics.median(per_call(name)) * scale,
                       metric.rsplit("_", 1)[1])
    runs = by_name["dynamics.integrate"]
    accepted = sum(s["accepted"] for s in runs)
    rejected = sum(s["rejected"] for s in runs)
    out["dynamics.step_us"] = (statistics.median(
        (s["end"] - s["start"]) / (s["accepted"] + s["rejected"]) * 1e6
        for s in runs), "us")
    out["dynamics.accepted"] = (accepted / rounds, "count")
    out["dynamics.rejected"] = (rejected / rounds, "count")
    out["dynamics.accept_ratio"] = (accepted / (accepted + rejected),
                                    "ratio")
    out["cli.out_mb"] = (statistics.mean(s["bytes"] for s in by_name[
        "cli.main"]) / 1e6, "MB")
    out["bench.span_ns"] = (span_cost_ns(), "ns")
    return out
