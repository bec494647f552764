"""The package's public name list, the config fields the program sets,
the error classes it catches by name, the call shapes the benchmark's traced mode (`perfbench/spans.py`,
`perfbench/run.py`) relies on, and which commands load numpy in a fresh
process."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdmham
import pdmham.cli
from pdmham import (brackets, certify, dual, dynamics, errors, families,
                    geometry, observables, phase)


def test_every_public_name_resolves():
    missing = [name for name in pdmham.__all__ if not hasattr(pdmham, name)]
    assert not missing


def test_public_names_are_unique():
    assert len(set(pdmham.__all__)) == len(pdmham.__all__)


PACKAGE = Path(pdmham.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _program_reads():
    """The (module, name) pairs that the program reads, and the modules
    that bind each top-level name.

    A read is a relative import in a `src/pdmham` module other than
    `__init__`; a `pdm.<module>.<name>` attribute read in `perfbench`; or
    a load of a module's own top-level name in code that runs, at import
    or in the definition of a name that is itself read.
    """
    reads, loads, owners = set(), {}, {}
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        module, tree = path.stem, ast.parse(path.read_text())
        imported = {(node.module, a.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for a in node.names}
        reads |= imported
        own = {name for _, name in imported}
        own.update(node.name for node in tree.body if hasattr(node, "name"))
        own.update(t.id for node in tree.body if isinstance(node, ast.Assign)
                   for t in node.targets if isinstance(t, ast.Name))
        for name in own:
            owners.setdefault(name, set()).add(module)
        for node in tree.body:
            owner = getattr(node, "name", None)
            loaded = {(module, n.id) for n in ast.walk(node)
                      if isinstance(n, ast.Name) and n.id in own
                      and isinstance(n.ctx, ast.Load) and n.id != owner}
            if owner is None:
                reads |= loaded
            else:
                loads[(module, owner)] = loaded
    for path in PERFBENCH.glob("*.py"):
        reads.update((node.value.attr, node.attr)
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Attribute)
                     and isinstance(node.value.value, ast.Name)
                     and node.value.value.id == "pdm")
    todo = list(reads)
    while todo:
        for each in loads.get(todo.pop(), set()) - reads:
            reads.add(each)
            todo.append(each)
    return reads, owners


def test_every_public_name_has_a_reader():
    reads, owners = _program_reads()
    unread = [name for name in pdmham.__all__
              if not any((module, name) in reads
                         for module in owners.get(name, ()))]
    assert not unread


CONFIGS = (dynamics.IntegratorConfig, phase.DomainBox, phase.SampleConfig)


def _program_setters():
    """The (class name, field) pairs that a call of the class passes, by
    keyword or by position, in a `src/pdmham` or `perfbench` module."""
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in CONFIGS}
    setters = set()
    for path in [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in fields:
                setters.update((name, field)
                               for field in fields[name][:len(node.args)])
                setters.update((name, k.arg) for k in node.keywords)
    return fields, setters


def test_every_config_field_has_a_program_setter():
    # a field that only the tests set is a constant, not an option
    fields, setters = _program_setters()
    unset = [f"{name}.{field}" for name, names in fields.items()
             for field in names if (name, field) not in setters]
    assert not unset


def _caught_names():
    """The names that an `except` clause in a `src/pdmham` or `perfbench`
    module catches, alone or in a tuple."""
    caught = set()
    for path in [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = getattr(node.type, "elts", [node.type])
                caught.update(getattr(t, "attr", getattr(t, "id", None))
                              for t in types)
    return caught


def test_every_error_subclass_is_caught_by_name():
    # a fault that no code tells apart by its class is a PdmError whose
    # message says which fault it is
    subclasses = {name for name, cls in vars(errors).items()
                  if isinstance(cls, type) and issubclass(cls, errors.PdmError)
                  and cls is not errors.PdmError}
    uncaught = sorted(subclasses - _caught_names())
    assert not uncaught


_ = object()

# (callable, positional args, keyword args), in the shape the benchmark
# calls them
BENCH_CALLS = [
    (certify.bracket_residual_suite, (_, _, _), {}),
    (certify.involution_check, (_,), {"sample": _, "points": _}),
    (certify.independence_stats, (_, _), {"points": _}),
    (certify.killing_tensor_check, (_, _, _), {}),
    (certify.identity_suite, (_, _, _), {}),
    (certify.evolution_law_check, (_, _, _), {}),
    (certify.corruption_suite, (_, _, _), {}),
    (certify.certificate, (_, _), {}),
    (certify.certificate, (_, _, _), {}),
    (certify.SampleConfig, (), {"count": _, "box": _}),
    (observables.integral, (_, _), {}),
    (observables.family_integrals, (_,), {}),
    (families.hamiltonian, (_, _, _, _, _), {}),
    (dynamics.hamilton_vector_field, (_, _), {}),
    (dynamics.integrate, (_, _, _), {}),
    (dynamics.drift_report, (_,), {}),
    (dynamics.IntegratorConfig, (), {"t_end": _}),
    (dynamics.IntegratorConfig, (), {"t_end": _, "rtol": _, "atol": _}),
    (brackets.poisson_bracket, (_, _, _, _), {}),
    (brackets.scaled_residual, (_, _, _, _), {}),
    (geometry.noether_p1, (_, _, _, _, _), {}),
    (geometry.noether_p2, (_, _, _, _, _), {}),
    (dual.seed, (_, _, _, _), {}),
    (dual.Dual, (_, _), {}),
    (phase.sample_points, (_, _, _), {}),
    (phase.ModelParams, (_, _, _, _, _), {}),
    (phase.PhasePoint, (_, _, _, _), {}),
    (phase.DomainBox, (), {"seed": _}),
    (pdmham.cli.main, (_,), {}),
]


@pytest.mark.parametrize(
    "fn,args,kwargs", BENCH_CALLS,
    ids=[f"{fn.__module__}.{fn.__qualname__}/{len(args)}+{len(kwargs)}"
         for fn, args, kwargs in BENCH_CALLS])
def test_benchmark_calls_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


@pytest.mark.parametrize("name,owner", [
    ("integrate", dynamics), ("drift_report", dynamics),
    ("certificate", certify),
])
def test_cli_keeps_the_attributes_the_benchmark_patches(name, owner):
    # the traced mode replaces these attributes of `pdmham.cli` and
    # requires `cli.main` to call them
    assert getattr(pdmham.cli, name) is getattr(owner, name)


def _fresh(code, tmp_path):
    """Run `code` in a new interpreter on this checkout's package."""
    src = os.path.dirname(os.path.dirname(pdmham.__file__))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_list_and_integrate_leave_numpy_unloaded_and_check_loads_it(
        tmp_path):
    out = _fresh("""
import sys
import pdmham
from pdmham.cli import main
assert main(["list"]) == 0
assert main(["integrate", "--family", "nc", "--n", "2", "--k0", "-1",
             "--r0", "1", "--phi0", "0.5", "--pr0", "0", "--pphi0", "1",
             "--t-end", "1", "--out", "traj.csv"]) == 0
print("after integrate:", "numpy" in sys.modules)
print("statistics after integrate:", "statistics" in sys.modules)
assert main(["check", "--family", "nd", "--n", "3", "--samples", "50",
             "--out", "cert.json"]) == 0
print("after check:", "numpy" in sys.modules)
""", tmp_path)
    assert "after integrate: False" in out
    assert "statistics after integrate: False" in out
    assert "after check: True" in out


def test_every_public_name_resolves_after_a_bare_import(tmp_path):
    out = _fresh("""
import pdmham
names = pdmham.__all__ + ["certify", "brackets"]
print([name for name in names if not hasattr(pdmham, name)])
assert pdmham.certify.certificate is pdmham.certificate
assert pdmham.brackets.BRACKET_TOL is pdmham.BRACKET_TOL
""", tmp_path)
    assert out.strip() == "[]"
