"""Layering of the package: only `suites.py` turns a measurement into a
verdict.  The math modules return numbers; `report` (cases, reports and
their emission) is imported only by `suites`, `cli` and the package
`__init__`, and `CaseResult` is constructed only in `report` and `suites`.

scipy is imported only inside the one function that needs it, the tail
integral, so that `import calderon` and a CLI call that reaches no tail load
numpy only.

Every series over a rearrangement is read through `sequences.series`, the one
caller of `brackets.tail_sum`; only the two tails with their own target (the
m1inf mass and the log1p split) choose a start themselves."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import calderon
from calderon import LLOG, power_log, space_norm

SRC = Path(calderon.__file__).resolve().parent
REPORT_IMPORTERS = {"suites", "cli", "__init__"}
CASE_BUILDERS = {"report", "suites"}
SCIPY_USERS = {("brackets", "powerlog_tail")}
TAIL_SUM_CALLERS = {("sequences", "series")}
TAIL_START_CHOOSERS = {("brackets", "tail_sum"), ("spaces", "marcinkiewicz_norm"), ("spaces", "lorentz_phi_norm")}


def _modules():
    paths = sorted(SRC.glob("*.py"))
    assert {p.stem for p in paths} >= {"report", "suites", "operators", "optimal_range"}
    return [(p.stem, ast.parse(p.read_text(encoding="utf-8"), filename=str(p))) for p in paths]


def _imports_report(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if (node.level == 1 and module == "report") or module == "calderon.report":
                return True
            if node.level == 1 and not module and any(a.name == "report" for a in node.names):
                return True
            if module == "calderon" and any(a.name == "report" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name == "calderon.report" for a in node.names):
                return True
    return False


def _constructs_case(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name == "CaseResult":
                return True
    return False


def test_only_suites_cli_and_init_import_report():
    importers = {name for name, tree in _modules() if _imports_report(tree)}
    assert importers <= REPORT_IMPORTERS, sorted(importers - REPORT_IMPORTERS)
    assert "suites" in importers


def test_only_report_and_suites_construct_case_results():
    builders = {name for name, tree in _modules() if _constructs_case(tree)}
    assert builders <= CASE_BUILDERS, sorted(builders - CASE_BUILDERS)
    assert "suites" in builders


def test_layering_detectors_see_both_import_and_call_forms():
    lazy = ast.parse("def f():\n    from .report import CaseResult\n    return report.CaseResult(name='a', status='pass')\n")
    assert _imports_report(lazy) and _constructs_case(lazy)
    assert _imports_report(ast.parse("import calderon.report\n"))
    assert _imports_report(ast.parse("from . import report\n"))
    assert not _imports_report(ast.parse("from .sequences import json_safe_float\n"))
    assert not _constructs_case(ast.parse("CaseResultish = 1\n"))


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def _scipy_imports(tree) -> list:
    """(enclosing function or None, line) of every scipy import; None means
    the import runs when the module is imported."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, func or child.name)
                continue
            if isinstance(child, ast.Import) and any(_is_scipy(a.name) for a in child.names):
                found.append((func, child.lineno))
            elif isinstance(child, ast.ImportFrom) and child.level == 0 and _is_scipy(child.module or ""):
                found.append((func, child.lineno))
            visit(child, func)

    visit(tree, None)
    return found


def test_no_module_imports_scipy_at_import_time():
    eager = {name: line for name, tree in _modules() for func, line in _scipy_imports(tree) if func is None}
    assert not eager, eager


def test_scipy_is_imported_only_where_it_is_used():
    users = {(name, func) for name, tree in _modules() for func, _ in _scipy_imports(tree)}
    assert users == SCIPY_USERS


def test_scipy_detector_sees_every_import_form():
    for src in ("import scipy\n", "import scipy.fft\n", "import numpy, scipy.special as sp\n",
                "from scipy import fft\n", "from scipy.special import gamma\n",
                "try:\n    from scipy import fft\nexcept ImportError:\n    pass\n",
                "class A:\n    import scipy.fft\n"):
        assert _scipy_imports(ast.parse(src)) == [(None, src.count("\n", 0, src.index("scipy")) + 1)], src
    nested = ast.parse("def f():\n    def g():\n        from scipy import special\n")
    assert _scipy_imports(nested) == [("f", 3)]
    assert _scipy_imports(ast.parse("class A:\n    def m(self):\n        import scipy\n")) == [("m", 3)]
    assert not _scipy_imports(ast.parse("import scipyish\nfrom .scipy import x\nfrom numpy import fft\n"))


def _run_child(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


_LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_cold_import_and_finite_norm_load_no_scipy(tmp_path):
    fin = tmp_path / "fin.json"
    fin.write_text(json.dumps({"kind": "finite", "domain": "half_line", "offset": 0, "values": [3.0, -1.0, 0.5]}))
    out = tmp_path / "out.json"
    doc = _run_child(
        "import json, sys\n"
        "import calderon, calderon.cli\n"
        f"after_import = {_LOADED_SCIPY}\n"
        f"code = calderon.cli.main(['norm', '--in', {str(fin)!r}, '--space', 'lp:2', '--out', {str(out)!r}])\n"
        f"print(json.dumps({{'import': after_import, 'norm': {_LOADED_SCIPY}, 'code': code}}))\n"
    )
    assert doc == {"import": [], "norm": [], "code": 0}
    assert json.loads(out.read_text())["value"] == pytest.approx(10.25 ** 0.5, rel=1e-15)


def test_power_log_norm_loads_scipy_special_on_first_use(tmp_path):
    pl = tmp_path / "pl.json"
    pl.write_text(json.dumps({"kind": "power_log", "alpha": 1.5, "beta": 0}))
    out = tmp_path / "out.json"
    doc = _run_child(
        "import json, sys\n"
        "import calderon.cli\n"
        "before = 'scipy.special' in sys.modules\n"
        f"code = calderon.cli.main(['norm', '--in', {str(pl)!r}, '--space', 'llog', '--out', {str(out)!r}])\n"
        "print(json.dumps({'before': before, 'after': 'scipy.special' in sys.modules, 'code': code}))\n"
    )
    assert doc == {"before": False, "after": True, "code": 0}
    child = json.loads(out.read_text())
    direct = space_norm(LLOG, power_log(1.5, 0.0), window=65536)
    assert child == {"space": "llog", **direct.to_json_dict()}
    assert child["value"].hex() == direct.value.hex()


def test_fast_hilbert_loads_no_scipy(tmp_path):
    # the fast route convolves with numpy.fft at a 5-smooth length
    fin = tmp_path / "fin.json"
    fin.write_text(json.dumps({"kind": "finite", "domain": "line", "offset": -2, "values": [3.0, -1.0, 0.5, 2.0]}))
    out = tmp_path / "out.json"
    doc = _run_child(
        "import json, sys\n"
        "import calderon.cli\n"
        f"code = calderon.cli.main(['hilbert', '--in', {str(fin)!r}, '--method', 'fast', '--window', '40', "
        f"'--out', {str(out)!r}])\n"
        f"print(json.dumps({{'loaded': {_LOADED_SCIPY}, 'code': code}}))\n"
    )
    assert doc == {"loaded": [], "code": 0}
    assert len(json.loads(out.read_text())["values"]) == 81


def _callers(tree, name: str) -> set:
    """The outermost enclosing function (None at module level) of every call
    of `name`, plain or as an attribute."""
    found = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, func or child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                    found.add(func)
            visit(child, func)

    visit(tree, None)
    return found


def test_tail_rules_are_called_only_where_the_reading_policy_allows():
    modules = _modules()
    tail_sum = {(m, f) for m, tree in modules for f in _callers(tree, "tail_sum")}
    assert tail_sum == TAIL_SUM_CALLERS
    choose = {(m, f) for m, tree in modules for f in _callers(tree, "choose_tail_start")}
    assert choose == TAIL_START_CHOOSERS
    names = {getattr(n, "name", None) or getattr(n, "id", None) or getattr(n, "attr", None)
             for _, tree in modules for n in ast.walk(tree)}
    assert "_mu_head" not in names


def test_caller_detector_sees_plain_attribute_and_nested_calls():
    tree = ast.parse("def f():\n    def g():\n        return brackets.tail_sum(1)\n"
                     "def h():\n    tail_sum(2)\ntail_sum(3)\n")
    assert _callers(tree, "tail_sum") == {"f", "h", None}
    assert not _callers(ast.parse("tail_sums(1)\nx = tail_sum\n"), "tail_sum")
