"""Command-line front door.

Subcommands: `list` (catalog), `check` (certificate JSON), `integrate`
(trajectory CSV plus a drift summary), `xcheck` (flat-plane potential
equivalence at n = 0).

Exit-code contract, fixed for CI use: 0 pass, 1 verdict fail, 2 usage or
invalid parameters, 3 integration aborted early (partial CSV still
written).  Every flag can instead come from a flat JSON config file
(`--config`); explicit flags override file values.  PDM_SEED provides the
seed default.
"""

import argparse
import json
import math
import os
import sys

from .catalog import CATALOG
from .certify import SampleConfig, certificate
from .dynamics import COMPLETED, IntegratorConfig, drift_report, integrate
from .errors import EmptyTrajectory, PdmError
from .families import euclid_equivalence_residual
from .phase import DomainBox, ModelParams, PhasePoint, sample_points

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ABORT = 3

# n = 0 reduction targets for the four flat-plane reference tags
XCHECK_FAMILIES = {fam.reduction.tag: name for name, fam in CATALOG.items()
                   if fam.reduction}
XCHECK_TOL = 1e-12
XCHECK_MARGIN = 0.05

_REQUIRED = object()


def _env_seed(parser):
    raw = os.environ.get("PDM_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        parser.error(f"PDM_SEED must be an integer, got {raw!r}")


def _resolve(args, parser, defaults):
    """Merge explicit flags over config-file values over defaults.

    Flags are all declared with default None so absence is detectable; the
    config file mirrors flag names one-to-one in a flat JSON object.
    """
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
        if not isinstance(cfg, dict):
            parser.error(f"config {args.config} must be a flat JSON object")
        unknown = sorted(set(cfg) - set(defaults))
        if unknown:
            parser.error(f"unknown config keys: {', '.join(unknown)}")
    out = {}
    for key, fallback in defaults.items():
        val = getattr(args, key)
        if val is None:
            val = cfg.get(key)
        if val is None:
            if fallback is _REQUIRED:
                parser.error(f"--{key.replace('_', '-')} is required")
            val = fallback
        out[key] = val
    return out


def _seed(vals, parser):
    return _env_seed(parser) if vals["seed"] is None else int(vals["seed"])


def _params(vals, parser):
    try:
        return ModelParams(str(vals["family"]), float(vals["n"]),
                           float(vals["k0"]), float(vals["k1"]),
                           float(vals["k2"]))
    except (PdmError, ValueError) as exc:
        parser.error(str(exc))


def cmd_list(_args, _parser):
    for spec in CATALOG.values():
        print(f"{spec.name:11s} [{spec.group}]")
        print(f"    {spec.formula}")
        print(f"    integrals: {', '.join(spec.integrals)}")
    return EXIT_PASS


_CHECK_DEFAULTS = {
    "family": _REQUIRED, "n": _REQUIRED,
    "k0": 0.0, "k1": 0.0, "k2": 0.0,
    "samples": 200, "seed": None, "out": None, "corrupt": None,
}


def _open_out(path, parser):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc}")


def cmd_check(args, parser):
    vals = _resolve(args, parser, _CHECK_DEFAULTS)
    params = _params(vals, parser)
    try:
        sample = SampleConfig(count=int(vals["samples"]),
                              box=DomainBox(seed=_seed(vals, parser)))
        cert = certificate(params, sample, corrupt=vals["corrupt"])
    except (PdmError, ValueError) as exc:
        parser.error(str(exc))
    payload = cert.to_json()
    if vals["out"]:
        with _open_out(vals["out"], parser) as fh:
            fh.write(payload + "\n")
        n_pass = sum(1 for c in cert.checks if c.passed)
        print(f"{params.family} n={params.n:g}: verdict {cert.verdict} "
              f"({n_pass}/{len(cert.checks)} checks passed) "
              f"-> {vals['out']}")
    else:
        print(payload)
    return EXIT_PASS if cert.verdict == "pass" else EXIT_FAIL


_INTEGRATE_DEFAULTS = {
    "family": _REQUIRED, "n": _REQUIRED,
    "k0": 0.0, "k1": 0.0, "k2": 0.0,
    "r0": _REQUIRED, "phi0": _REQUIRED, "pr0": _REQUIRED, "pphi0": _REQUIRED,
    "t_end": 50.0, "rtol": 1e-10, "atol": 1e-12, "out": "trajectory.csv",
}


def _write_trajectory_csv(fh, traj):
    names = list(traj.monitors)
    header = ["t", "r", "phi", "p_r", "p_phi"] + names
    fh.write(",".join(header) + "\n")
    row = ",".join(["%.17g"] * len(header)) + "\n"
    columns = [traj.times.tolist(), *traj.states.T.tolist(),
               *(traj.monitors[name].tolist() for name in names)]
    fh.writelines(row % values for values in zip(*columns))


def cmd_integrate(args, parser):
    vals = _resolve(args, parser, _INTEGRATE_DEFAULTS)
    params = _params(vals, parser)
    initial = PhasePoint(float(vals["r0"]), float(vals["phi0"]),
                         float(vals["pr0"]), float(vals["pphi0"]))
    try:
        config = IntegratorConfig(t_end=float(vals["t_end"]),
                                  rtol=float(vals["rtol"]),
                                  atol=float(vals["atol"]))
        traj = integrate(params, initial, config)
    except (PdmError, ValueError) as exc:
        parser.error(str(exc))
    with _open_out(vals["out"], parser) as fh:
        _write_trajectory_csv(fh, traj)
    summary = (f"{params.family} n={params.n:g}: {traj.termination} "
               f"at t={traj.times[-1]:.6g}, {traj.n_accepted} steps "
               f"({traj.n_rejected} rejected) -> {vals['out']}")
    try:
        report = drift_report(traj)
        heuristic = 10.0 * config.rtol * config.t_end
        summary += (f"; worst relative drift {report.worst:.3e}"
                    f" (heuristic scale {heuristic:.1e})")
    except EmptyTrajectory:
        summary += "; no drift stats (single recorded state)"
    print(f"{summary}; {traj.n_field_evals} field evaluations")
    return EXIT_PASS if traj.termination == COMPLETED else EXIT_ABORT


_XCHECK_DEFAULTS = {
    "which": _REQUIRED,
    "k0": 1.0, "k1": 0.7, "k2": 0.4,
    "samples": 1000, "seed": None,
}


def cmd_xcheck(args, parser):
    vals = _resolve(args, parser, _XCHECK_DEFAULTS)
    which = str(vals["which"])
    if which not in XCHECK_FAMILIES:
        parser.error(f"unknown tag {which!r} (choose from a, b, c, d)")
    params = _params({"family": XCHECK_FAMILIES[which], "n": 0.0,
                      "k0": vals["k0"], "k1": vals["k1"], "k2": vals["k2"]},
                     parser)
    seed = _seed(vals, parser)
    # the family-side pole margins coincide with the cartesian walls at
    # n = 0 (u = -phi); the d twin additionally needs the upper half plane
    if CATALOG[params.family].reduction.upper_half:
        box = DomainBox(phi_min=XCHECK_MARGIN, phi_max=math.pi - XCHECK_MARGIN,
                        phi_margin=XCHECK_MARGIN, seed=seed)
    else:
        box = DomainBox(phi_margin=XCHECK_MARGIN, seed=seed)
    try:
        points = sample_points(params, box, int(vals["samples"]))
        residual = max(euclid_equivalence_residual(params, pt)
                       for pt in points)
    except PdmError as exc:
        parser.error(str(exc))
    ok = residual <= XCHECK_TOL
    print(f"tag {which}: {params.family} at n=0 vs flat-plane reference, "
          f"max |U - V| = {residual:.3e} over {len(points)} points "
          f"[{'pass' if ok else 'FAIL'}]")
    return EXIT_PASS if ok else EXIT_FAIL


def _model_flags(sub):
    sub.add_argument("--family", choices=tuple(CATALOG))
    sub.add_argument("--n", type=float)
    sub.add_argument("--k0", type=float)
    sub.add_argument("--k1", type=float)
    sub.add_argument("--k2", type=float)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pdm",
        description="Deformed-oscillator and deformed-Kepler Hamiltonians: "
                    "certificates, trajectories, flat-plane cross-checks.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_list = subs.add_parser("list", help="print the family catalog")
    p_list.set_defaults(func=cmd_list)

    p_check = subs.add_parser("check", help="run a certificate")
    _model_flags(p_check)
    p_check.add_argument("--samples", type=int)
    p_check.add_argument("--seed", type=int)
    p_check.add_argument("--out")
    p_check.add_argument("--corrupt", metavar="INTEGRAL",
                         help="debug: corrupt one integral so the "
                              "certificate fails")
    p_check.add_argument("--config")
    p_check.set_defaults(func=cmd_check)

    p_int = subs.add_parser("integrate", help="integrate one trajectory")
    _model_flags(p_int)
    p_int.add_argument("--r0", type=float)
    p_int.add_argument("--phi0", type=float)
    p_int.add_argument("--pr0", type=float)
    p_int.add_argument("--pphi0", type=float)
    p_int.add_argument("--t-end", dest="t_end", type=float)
    p_int.add_argument("--rtol", type=float)
    p_int.add_argument("--atol", type=float)
    p_int.add_argument("--out")
    p_int.add_argument("--config")
    p_int.set_defaults(func=cmd_integrate)

    p_x = subs.add_parser("xcheck",
                          help="flat-plane potential equivalence at n = 0")
    p_x.add_argument("--which", choices=tuple(XCHECK_FAMILIES))
    p_x.add_argument("--k0", type=float)
    p_x.add_argument("--k1", type=float)
    p_x.add_argument("--k2", type=float)
    p_x.add_argument("--samples", type=int)
    p_x.add_argument("--seed", type=int)
    p_x.add_argument("--config")
    p_x.set_defaults(func=cmd_xcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
