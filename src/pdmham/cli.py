"""Command-line front door.

Subcommands: `list` (catalog), `check` (certificate JSON), `integrate`
(trajectory CSV plus a drift summary), `xcheck` (the n = 0 flat-plane
twin, reduced as a certificate identity: the worst gap relative to
max(1, sum |U_i|, sum |V_i|) over the potentials' single-coupling terms,
against IDENTITY_TOL, exit 2 where a gap is not finite).

Exit-code contract, fixed for CI use: 0 pass, 1 verdict fail, 2 usage or
invalid parameters (a sample too large to allocate among them), 3
integration aborted early (partial CSV still written).  `build_parser`
declares each flag once, with its default.  Every flag can instead come
from a flat JSON config file (`--config`), whose values are checked
exactly as typed flags, `choices` included; explicit flags override file
values.  The sampling seed defaults to 0.
"""

import argparse
import contextlib
import functools
import json
import re
import sys

from .catalog import CATALOG
from .dynamics import (COMPLETED, IntegratorConfig, drift_report, integrate,
                       worst_drift)
from .errors import EmptyTrajectory, PdmError
from .families import flat_twin, twin_box
from .phase import (DomainBox, ModelParams, PhasePoint, SampleConfig,
                    sample_points)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ABORT = 3

# n = 0 reduction targets for the four flat-plane reference tags
XCHECK_FAMILIES = {fam.reduction.tag: name for name, fam in CATALOG.items()
                   if fam.reduction}

# argparse's own matcher takes only -1 and -1.5 for negative numbers, so
# `--k0 -1e-3` or `--pphi0 -inf` would read as an unknown option
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

_CERTIFY_NAMES = ("IDENTITY_TOL", "certificate", "identity_residual")


def __getattr__(name):
    """Bind the certificate names from `certify`, and so load numpy, on
    the first `check` or `xcheck` (PEP 562); `list` and `integrate` never
    do.  Once bound they are plain module attributes, so a caller may
    replace one and the commands call the replacement."""
    if name not in _CERTIFY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import certify
    for each in _CERTIFY_NAMES:
        globals().setdefault(each, getattr(certify, each))
    return globals()[name]


def _params(family, n, args, parser):
    try:
        return ModelParams(family, n, args.k0, args.k1, args.k2)
    except (PdmError, ValueError) as exc:
        parser.error(str(exc))


def cmd_list(_args, _parser):
    for spec in CATALOG.values():
        print(f"{spec.name:11s} [{spec.group}]")
        print(f"    {spec.formula}")
        print(f"    integrals: {', '.join(spec.integrals)}")
    return EXIT_PASS


@contextlib.contextmanager
def _open_out(path, parser):
    """`path` open for writing; an OSError from its open, a write or its
    close (a full disk among them) is a usage error, not a traceback."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc}")


def cmd_check(args, parser):
    params = _params(args.family, args.n, args, parser)
    try:
        sample = SampleConfig(count=args.samples,
                              box=DomainBox(seed=args.seed))
        cert = __getattr__("certificate")(params, sample, corrupt=args.corrupt)
    except (PdmError, ValueError, MemoryError) as exc:
        parser.error(str(exc))
    payload = cert.to_json()
    if args.out:
        with _open_out(args.out, parser) as fh:
            fh.write(payload + "\n")
        n_pass = sum(1 for c in cert.checks if c.passed)
        print(f"{params.family} n={params.n:g}: verdict {cert.verdict} "
              f"({n_pass}/{len(cert.checks)} checks passed) "
              f"-> {args.out}")
    else:
        print(payload)
    return EXIT_PASS if cert.verdict == "pass" else EXIT_FAIL


def _write_trajectory_csv(fh, traj):
    names = list(traj.monitors)
    header = ["t", "r", "phi", "p_r", "p_phi"] + names
    fh.write(",".join(header) + "\n")
    row = ",".join(["%.17g"] * len(header)) + "\n"
    columns = [traj.times, *zip(*traj.states),
               *(traj.monitors[name] for name in names)]
    fh.writelines(row % values for values in zip(*columns))


def cmd_integrate(args, parser):
    params = _params(args.family, args.n, args, parser)
    initial = PhasePoint(args.r0, args.phi0, args.pr0, args.pphi0)
    try:
        config = IntegratorConfig(t_end=args.t_end, rtol=args.rtol,
                                  atol=args.atol)
        traj = integrate(params, initial, config)
    except (PdmError, ValueError) as exc:
        parser.error(str(exc))
    with _open_out(args.out, parser) as fh:
        _write_trajectory_csv(fh, traj)
    summary = (f"{params.family} n={params.n:g}: {traj.termination} "
               f"at t={traj.times[-1]:.6g}, {traj.n_accepted} steps "
               f"({traj.n_rejected} rejected) -> {args.out}")
    try:
        worst = worst_drift(drift_report(traj).values())
        heuristic = 10.0 * config.rtol * config.t_end
        summary += (f"; worst relative drift {worst:.3e}"
                    f" (heuristic scale {heuristic:.1e})")
    except EmptyTrajectory:
        summary += "; no drift stats (single recorded state)"
    summary += (f"; {traj.n_field_evals} field evaluations; rejected "
                f"{traj.n_rejected_error} by the error test, "
                f"{traj.n_rejected_invalid} by an invalid stage")
    steps = traj.step_sizes()
    if steps is not None:
        summary += "; step size min %.3g median %.3g max %.3g" % steps
    print(summary)
    return EXIT_PASS if traj.termination == COMPLETED else EXIT_ABORT


def cmd_xcheck(args, parser):
    which = args.which
    params = _params(XCHECK_FAMILIES[which], 0.0, args, parser)
    box = twin_box(params, args.seed)
    try:
        points = sample_points(params, box, args.samples)
        residual = __getattr__("identity_residual")(
            params, "flat_twin", flat_twin, points)
    except (PdmError, ValueError, MemoryError) as exc:
        parser.error(str(exc))
    ok = residual <= __getattr__("IDENTITY_TOL")
    print(f"tag {which}: {params.family} at n=0 vs flat-plane reference, "
          f"max relative |U - V| = {residual:.3e} over {len(points)} points "
          f"[{'pass' if ok else 'FAIL'}]")
    return EXIT_PASS if ok else EXIT_FAIL


def _couplings(sub, defaults=(0.0, 0.0, 0.0)):
    for name, default in zip(("k0", "k1", "k2"), defaults):
        sub.add_argument(f"--{name}", type=float, default=default)


def _model_flags(sub):
    sub.add_argument("--family", choices=tuple(CATALOG))
    sub.add_argument("--n", type=float)
    _couplings(sub)


def build_parser():
    # `main` checks the `required` flags after parsing, so that a config
    # file may supply them; `sub` is the subcommand's own parser
    parser = argparse.ArgumentParser(
        prog="pdm",
        description="Deformed-oscillator and deformed-Kepler Hamiltonians: "
                    "certificates, trajectories, flat-plane cross-checks.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_list = subs.add_parser("list", help="print the family catalog")
    p_list.set_defaults(func=cmd_list, sub=p_list, required=())

    p_check = subs.add_parser("check", help="run a certificate")
    p_check.set_defaults(func=cmd_check, sub=p_check,
                         required=("family", "n"))
    _model_flags(p_check)
    p_check.add_argument("--samples", type=int, default=SampleConfig.count)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out")
    p_check.add_argument("--corrupt", metavar="INTEGRAL",
                         help="debug: corrupt one integral so the "
                              "certificate fails")
    p_check.add_argument("--config")

    p_int = subs.add_parser("integrate", help="integrate one trajectory")
    p_int.set_defaults(func=cmd_integrate, sub=p_int, required=(
        "family", "n", "r0", "phi0", "pr0", "pphi0"))
    _model_flags(p_int)
    p_int.add_argument("--r0", type=float)
    p_int.add_argument("--phi0", type=float)
    p_int.add_argument("--pr0", type=float)
    p_int.add_argument("--pphi0", type=float)
    p_int.add_argument("--t-end", dest="t_end", type=float,
                       default=IntegratorConfig.t_end)
    p_int.add_argument("--rtol", type=float, default=IntegratorConfig.rtol)
    p_int.add_argument("--atol", type=float, default=IntegratorConfig.atol)
    p_int.add_argument("--out", default="trajectory.csv")
    p_int.add_argument("--config")

    p_x = subs.add_parser("xcheck",
                          help="flat-plane potential equivalence at n = 0")
    p_x.set_defaults(func=cmd_xcheck, sub=p_x, required=("which",))
    p_x.add_argument("--which", choices=tuple(XCHECK_FAMILIES))
    _couplings(p_x, (1.0, 0.7, 0.4))
    p_x.add_argument("--samples", type=int, default=1000)
    p_x.add_argument("--seed", type=int, default=0)
    p_x.add_argument("--config")

    for each in (parser, *subs.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _config_args(args, parser):
    """The config file's non-null values as `--flag=value` arguments."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {args.config}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"config {args.config} must be a flat JSON object")
    flags = {a.dest: a.option_strings[0] for a in args.sub._actions
             if a.dest not in ("help", "config")}
    unknown = sorted(set(cfg) - set(flags))
    if unknown:
        parser.error(f"unknown config keys: {', '.join(unknown)}")
    nested = sorted(key for key, val in cfg.items()
                    if isinstance(val, (list, dict)))
    if nested:
        parser.error(f"config values must be scalars: {', '.join(nested)}")
    # parsed as typed: through each flag's own type and choices
    return [f"{flags[key]}={val}" for key, val in cfg.items()
            if val is not None]


# one parser per process; nothing may change it after it is built
_shared_parser = functools.cache(build_parser)


def main(argv=None):
    parser = _shared_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    # the file's values go right after the subcommand, the first word (pdm
    # takes no option of its own), so the flags given after them win
    if getattr(args, "config", None):
        args = parser.parse_args(argv[:1] + _config_args(args, parser)
                                 + argv[1:])
    for name in args.required:
        if getattr(args, name) is None:
            parser.error(f"--{name.replace('_', '-')} is required")
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
