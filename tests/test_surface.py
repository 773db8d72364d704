"""The top-level package and the names other code relies on.

``from qclone import *`` binds exactly ``__all__``, each exported name is the
object of the same name in its submodule, and the README's quick start runs
as written.  The benchmark's traced mode (``perfbench/spans.py`` and
``perfbench/child.py``) wraps public functions by module and name, binds the
parameters of the two alpha-mean functions that ``mean`` calls by name
(``fig5`` makes one ``family_mean`` call instead) and reads
``EntanglementReport.method``; its generic workload also calls
``wzcm_full_output`` and ``partial_trace``, whose trace must be the wzcm
``clone``.  The last tests pin those, so a rename fails here instead of
leaving a traced metric at zero.  The three result records are named
tuples, and no qclone module imports ``dataclasses``.  ``import qclone``
loads the package alone, each submodule binds its exported names into the
package when it is imported, and the console script's front prints help
and usage errors without loading numpy and runs BLAS on one thread.  No
per-call path of the commands or the public functions enters numpy's
Python-level wrappers.
"""

import ast
import importlib
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import qclone
import qclone.analysis
import qclone.cli
import qclone.cloners
import qclone.entanglement
import qclone.qmath
import qclone.states

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SUBMODULES = ("analysis", "cloners", "entanglement", "qmath", "states")


def test_star_import_binds_exactly_all():
    assert len(qclone.__all__) == len(set(qclone.__all__))
    namespace = {}
    exec("from qclone import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qclone.__all__)
    for name in qclone.__all__:
        assert namespace[name] is getattr(qclone, name)


def test_exported_names_live_in_their_submodules():
    for name in qclone.__all__:
        if name == "__version__":
            continue
        obj = getattr(qclone, name)
        assert any(getattr(getattr(qclone, m), name, None) is obj for m in SUBMODULES), name


def test_readme_quick_start_runs_as_written():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def _is_public_in(module, name):
    fn = getattr(module, name)
    return inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")


def test_benchmark_hooked_functions():
    assert _is_public_in(qclone.qmath, "hermitian_eigen")
    assert _is_public_in(qclone.entanglement, "concurrence")
    rho = qclone.clone(qclone.psi_minus_family(0.6), "scm")
    assert qclone.concurrence(rho).method == "generic"
    coeffs = np.array([0.5, 0.5j, -0.5, 0.5])
    reduced = qclone.partial_trace(qclone.wzcm_full_output(coeffs), "clone1")
    state = qclone.states.BELL_MATRIX.T @ coeffs
    assert np.max(np.abs(reduced - qclone.clone(state, "wzcm"))) < 1e-14


def test_benchmark_binds_the_mean_parameters(monkeypatch, tmp_path):
    # the traced mode binds machine or params, and tol, by name, and reads
    # value and evaluations off the result of each call `mean` makes
    seen = []
    for name, params in (
        ("mean_entanglement", ["machine", "tol"]),
        ("mean_entanglement_acm", ["params", "tol"]),
    ):
        fn = getattr(qclone.analysis, name)
        assert _is_public_in(qclone.analysis, name)
        signature = inspect.signature(fn)
        assert list(signature.parameters) == params

        def spy(*args, fn=fn, signature=signature, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            result = fn(*args, **kwargs)
            seen.append((fn.__name__, dict(bound.arguments), result.value, result.evaluations))
            return result

        monkeypatch.setattr(qclone.analysis, name, spy)
    output = ["--output", str(tmp_path / "out.csv")]
    for argv in (
        ["mean", "--machine", "scm"],
        ["mean", "--machine", "acm", "--s1", "0.7", "--s2", "0.48"],
    ):
        assert qclone.cli.main(argv + output) == 0
    assert [(name, sorted(args)) for name, args, _, _ in seen] == [
        ("mean_entanglement", ["machine", "tol"]),
        ("mean_entanglement_acm", ["params", "tol"]),
    ]
    assert (seen[0][1]["machine"], seen[0][1]["tol"]) == ("scm", 1e-7)
    acm_args = seen[1][1]
    assert (acm_args["params"].s1, acm_args["params"].s2, acm_args["tol"]) == (0.7, 0.48, 1e-7)
    assert all(isinstance(value, float) and evaluations > 0 for _, _, value, evaluations in seen)
    # fig5 makes one family_mean call: s1, the clipped boundary s2, then the
    # wzcm and scm shrinks of its reference columns
    shrinks = []
    family_mean = qclone.analysis.family_mean

    def family_spy(s, *args, **kwargs):
        shrinks.append(np.array(s, dtype=float))
        return family_mean(s, *args, **kwargs)

    monkeypatch.setattr(qclone.analysis, "family_mean", family_spy)
    assert qclone.cli.main(["fig5", "--grid-points", "3"] + output) == 0
    assert len(seen) == 2
    s1 = np.linspace(0.0, 1.0, 3)
    s2 = np.clip(qclone.cloners.acm_boundary_s2(s1, "upper"), 0.0, 1.0)
    assert [s.tolist() for s in shrinks] == [[*s1.tolist(), *s2.tolist(), 1.0, 0.6]]


RECORDS = {
    qclone.entanglement.EntanglementReport: ("concurrence", "eof", "lambdas", "method"),
    qclone.analysis.QuadratureResult: ("value", "abs_error_estimate", "evaluations"),
    qclone.cloners.ShrinkParams: ("s1", "s2"),
}


def test_result_records_are_named_tuples():
    for record, fields in RECORDS.items():
        assert issubclass(record, tuple) and record._fields == fields, record
    report_type = qclone.entanglement.EntanglementReport
    assert report_type._field_defaults == {"method": "generic"}
    lams = (0.7, 0.1, 0.05, 0.05)
    pairs = [
        (report_type(0.5, 0.3, lams),
         report_type(concurrence=0.5, eof=0.3, lambdas=lams, method="generic")),
        (qclone.analysis.QuadratureResult(0.25, 1e-9, 64),
         qclone.analysis.QuadratureResult(value=0.25, abs_error_estimate=1e-9, evaluations=64)),
        (qclone.ShrinkParams(0.7, 0.48), qclone.ShrinkParams(s1=0.7, s2=0.48)),
    ]
    for positional, keyword in pairs:
        assert positional == keyword and type(positional) is type(keyword)
        for name in positional._fields:
            with pytest.raises(AttributeError):
                setattr(positional, name, getattr(positional, name))
        with pytest.raises(AttributeError):
            positional.extra = 1
    report = qclone.concurrence(qclone.clone(qclone.psi_minus_family(0.6), "scm"))
    assert isinstance(report, report_type)
    assert report == (report.concurrence, report.eof, report.lambdas, "generic")


PACKAGE = pathlib.Path(qclone.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_no_module_imports_dataclasses():
    assert len(SOURCES) >= 6
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name


def _child(code, *argv, status=0, **environ):
    """The stdout of ``code`` run with ``argv`` in a fresh interpreter that
    imports this checkout, which must exit with ``status``; each keyword
    sets that environment variable, or removes it where it is None."""
    env = dict(os.environ)
    src = str(PACKAGE.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for key, value in environ.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == status, proc.stderr
    return proc.stdout


def test_import_does_not_load_dataclasses():
    # relative to numpy: a numpy that imports dataclasses itself does not fail.
    # The child loads every qclone module before it looks.
    code = (
        "import sys, numpy\n"
        "before = 'dataclasses' in sys.modules\n"
        "from qclone import *\n"
        "import qclone, qclone._commands, qclone.cli\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('qclone.'))\n"
        "print(qclone.__file__, before, 'dataclasses' in sys.modules, *loaded)"
    )
    out = _child(code).split()
    assert pathlib.Path(out[0]).resolve() == PACKAGE / "__init__.py"
    assert out[1:3] in (["False", "False"], ["True", "True"])
    modules = {f"qclone.{path.stem}" for path in SOURCES} - {"qclone.__init__", "qclone.__main__"}
    assert sorted(out[3:]) == sorted(modules)


#: what a child prints: every numpy or qclone module it holds.
_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'qclone'))"


def test_bare_import_loads_the_package_alone():
    code = f"import sys, qclone\nprint(*{_LOADED})\nprint(*dir(qclone))"
    loaded, listed = _child(code).splitlines()
    assert loaded.split() == ["qclone"]
    assert set(qclone.__all__) | set(SUBMODULES) <= set(listed.split())


def test_submodules_resolve_on_first_access():
    code = (
        "import sys, qclone\n"
        "print(qclone.cloners.MACHINES, qclone.analysis.QUAD_DEFAULT_TOL)\n"
        "print('clone' in vars(qclone), 'concurrence' in vars(qclone))\n"
        f"print(*{_LOADED})"
    )
    values, bound, loaded = _child(code).splitlines()
    assert values == "('wzcm', 'scm', 'acm') 1e-07"
    # binding cloners bound its exports; nothing imported entanglement
    assert bound == "True False"
    assert "qclone.entanglement" not in loaded.split()


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="^module 'qclone' has no attribute 'clones'$"):
        qclone.clones


def test_a_patch_of_the_home_module_before_first_access_is_seen_and_undone():
    # the benchmark's span recorder: import the home module, rebind the
    # function in every qclone namespace that holds it, call it through the
    # package, then put each namespace back
    code = (
        "import importlib, sys, pytest, qclone\n"
        "home = importlib.import_module('qclone.entanglement')\n"
        "original = home.concurrence\n"
        "def spy(rho):\n"
        "    return 'spy'\n"
        "patch = pytest.MonkeyPatch()\n"
        "for name, module in list(sys.modules.items()):\n"
        "    if name.split('.')[0] == 'qclone' and vars(module).get('concurrence') is original:\n"
        "        patch.setattr(module, 'concurrence', spy)\n"
        "print(qclone.concurrence is spy, qclone.concurrence(None))\n"
        "patch.undo()\n"
        "print(qclone.concurrence is original, home.concurrence is original)"
    )
    assert _child(code).splitlines() == ["True spy", "True True"]


COMMANDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "clone", "entangle", "mean")


@pytest.mark.parametrize(
    "argv",
    [[], ["-h"], *([command, "-h"] for command in COMMANDS), ["fig1", "--bogus"], ["mean"]],
    ids=lambda argv: " ".join(["qclone", *argv]),
)
def test_help_and_parse_errors_load_no_numpy(argv):
    # the console script's front parses and prints without numpy; a parse
    # that fails or ends in -h never imports the commands module
    code = (
        "import sys, qclone.cli\n"
        "try:\n"
        "    qclone.cli.run()\n"
        "finally:\n"
        f"    sys.stdout.write('\\n' + ' '.join({_LOADED}) + '\\n')"
    )
    out = _child(code, *argv, status=0 if "-h" in argv else 2)
    assert out.splitlines()[-1].split() == ["qclone", "qclone._constants", "qclone.cli"]


#: each usage error of a command line that parses, with its exit code and line.
USAGE_ERRORS = json.loads(pathlib.Path(__file__).with_name("usage_errors.json").read_text())


def test_every_recorded_usage_error_loads_no_numpy():
    # the front judges the parsed values by the command's rules before it
    # imports the commands module; one child runs every case through main
    # and reports its status, its line and what is loaded after it
    code = (
        "import contextlib, io, json, sys, qclone.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "        status = qclone.cli.main(argv)\n"
        f"    print(json.dumps([status, err.getvalue(), {_LOADED}]))"
    )
    cases = USAGE_ERRORS["cases"]
    out = _child(code, json.dumps([argv for argv, _, _ in cases])).splitlines()
    assert len(out) == len(cases)
    front = ["qclone", "qclone._constants", "qclone.cli"]
    for (argv, status, line), got in zip(cases, out):
        assert json.loads(got) == [status, line, front], argv


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_console_script_runs_blas_single_threaded(preset):
    # OpenBLAS starts its thread pool when numpy loads; the console script
    # asks for none unless the user set the count, and then keeps it
    code = (
        "import os, qclone.cli\n"
        "try:\n"
        "    qclone.cli.run()\n"
        "finally:\n"
        "    print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    )
    argv = ("fig1", "--grid-points", "3", "--output", os.devnull)
    threads, setting = _child(code, *argv, OPENBLAS_NUM_THREADS=preset).split()
    if preset is None:
        assert (threads, setting) == ("1", "1")
    else:
        assert setting == preset


#: numpy's Python-level wrappers around C entry points: the ndarray
#: reduction methods, the fromnumeric and numeric functions, einsum's
#: dispatch.  A C function's own dispatcher in _core/multiarray.py (vdot,
#: concatenate) and the errstate decorator are not counted.
_WRAPPER_MODULES = ("_methods", "fromnumeric", "numeric", "einsumfunc")


def _wrapper_frames(call) -> list[str]:
    """The numpy wrapper frames that ``call()`` enters, after one warm-up
    call has loaded and cached what a first call does."""
    call()
    files = {
        importlib.import_module(f"numpy._core.{name}").__file__: name for name in _WRAPPER_MODULES
    }
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            seen.append(f"{files[frame.f_code.co_filename]}.{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


def _cli(*argv):
    """A call of the CLI's main on ``argv`` that writes to os.devnull and must succeed."""
    def call():
        assert qclone.cli.main([*argv, "--output", os.devnull]) == 0

    return call


_CLONE_MACHINES = (("--machine", "wzcm"), ("--machine", "scm", "--clones", "3"),
                   ("--machine", "acm", "--s1", "0.8"))
PER_CALL_PATHS = {
    **{f"mean {m}": _cli("mean", "--machine", m) for m in ("wzcm", "scm")},
    "mean acm": _cli("mean", "--machine", "acm", "--s1", "0.12", "--s2", "0.88"),
    **{f"fig{k}": _cli(f"fig{k}", "--grid-points", "5") for k in range(1, 6)},
    **{
        f"{c} {m[1]}": _cli(c, *m, "--alpha", "0.6")
        for c in ("clone", "entangle")
        for m in _CLONE_MACHINES
    },
    "concurrence": lambda: qclone.concurrence(qclone.clone(qclone.psi_minus_family(0.6), "scm")),
    "family_mean": lambda: qclone.family_mean([0.2, 0.6, 1.0]),
    "family_eof": lambda: qclone.family_eof([0.6, 0.8], 0.6),
    "acm_boundary_s2": lambda: qclone.acm_boundary_s2(0.3, "lower"),
    "partial_trace": lambda: qclone.partial_trace(
        qclone.wzcm_full_output([0.5, 0.5j, -0.5, 0.5]), "machine"),
}


@pytest.mark.parametrize("name", PER_CALL_PATHS)
def test_per_call_paths_enter_no_numpy_wrapper(name):
    # each of these calls numpy's C entry points itself: c_einsum, the
    # ufunc reductions and the ndarray methods that need no Python frame
    assert _wrapper_frames(PER_CALL_PATHS[name]) == []
