"""Layering of the package: only `suites.py` turns a measurement into a
verdict.  The math modules return numbers; `report` (cases, reports and
their emission) is imported only by `suites`, `cli` and the package
`__init__`, and `CaseResult` is constructed only in `report` and `suites`.

No module imports scipy (SCIPY_USERS is empty): the tail integral
Gamma(a, x) is computed with `math`, so `import calderon` and every CLI call,
a power-log tail included, load numpy only.

Every series over a rearrangement is read through `sequences.series`, the one
caller of `brackets.choose_tail_start`: a norm with its own target (the m1inf
mass, the log1p split) passes it to `series` and chooses no start itself.

The harmonic witness is written once: only `sequences` holds the H_m formula
(the one user of Euler's constant), and H_m and the image S a are read on
index arrays, never index by index in a loop or comprehension.

The sequence wire format is written once: only `sequences` builds a dict
with a "kind" key, so every printed sequence reads back through
`sequence_from_json`.

No module but the package `__init__`, which re-exports, imports a name it
never reads: a deletion takes its now-dead imports with it."""

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
SCIPY_USERS = set()
TAIL_START_CHOOSERS = {("sequences", "series")}
HARMONIC_FORMULAS = {"harmonic_number", "harmonic_calderon_closed_form"}
KIND_WRITERS = {"sequences"}
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


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


def test_power_log_norm_loads_no_scipy(tmp_path):
    # the llog norm of a power-log profile brackets its tail by Gamma(a, x)
    pl = tmp_path / "pl.json"
    pl.write_text(json.dumps({"kind": "power_log", "alpha": 1.5, "beta": 0}))
    out = tmp_path / "out.json"
    doc = _run_child(
        "import json, sys\n"
        "import calderon.brackets, calderon.cli\n"
        "upper, calls = calderon.brackets._upper_gamma, []\n"
        "calderon.brackets._upper_gamma = lambda a, x: calls.append(a) or upper(a, x)\n"
        f"code = calderon.cli.main(['norm', '--in', {str(pl)!r}, '--space', 'llog', '--out', {str(out)!r}])\n"
        f"print(json.dumps({{'loaded': {_LOADED_SCIPY}, 'tail': len(calls) > 0, 'code': code}}))\n"
    )
    assert doc == {"loaded": [], "tail": True, "code": 0}
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


def _names(tree) -> set:
    """Every name the tree defines, reads, binds, imports or takes as an attribute."""
    return {n.name.rsplit(".", 1)[-1] if isinstance(n, ast.alias)
            else getattr(n, "name", None) or getattr(n, "id", None) or getattr(n, "attr", None)
            for n in ast.walk(tree)}


def test_tail_rules_are_called_only_where_the_reading_policy_allows():
    modules = _modules()
    choose = {(m, f) for m, tree in modules for f in _callers(tree, "choose_tail_start")}
    assert choose == TAIL_START_CHOOSERS
    assert all("_mu_head" not in _names(tree) for _, tree in modules)


def test_caller_detector_sees_plain_attribute_and_nested_calls():
    tree = ast.parse("def f():\n    def g():\n        return brackets.choose_tail_start(1)\n"
                     "def h():\n    choose_tail_start(2)\nchoose_tail_start(3)\n")
    assert _callers(tree, "choose_tail_start") == {"f", "h", None}
    assert not _callers(ast.parse("choose_tail_starts(1)\nx = choose_tail_start\n"), "choose_tail_start")




def _looped_calls(tree, names: set) -> list:
    """The line of every call of one of `names` inside a loop or a comprehension."""
    found = set()
    for loop in ast.walk(tree):
        if isinstance(loop, LOOPS):
            for node in ast.walk(loop):
                if isinstance(node, ast.Call):
                    f = node.func
                    if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in names:
                        found.add(node.lineno)
    return sorted(found)


def test_harmonic_witness_is_written_once_and_read_on_index_arrays():
    modules = _modules()
    assert {m for m, tree in modules if "EULER_GAMMA" in _names(tree)} == {"sequences"}
    looped = {m: lines for m, tree in modules if (lines := _looped_calls(tree, HARMONIC_FORMULAS))}
    assert not looped, looped


def test_loop_detector_sees_loops_and_comprehensions():
    for src in ("for n in ns:\n    h = harmonic_number(n)\n",
                "while True:\n    optimal_range.harmonic_calderon_closed_form(3)\n",
                "x = [harmonic_number(m) for m in ms]\n", "x = all(harmonic_number(m) > 0 for m in ms)\n",
                "x = {m: harmonic_number(m) for m in ms}\n"):
        assert _looped_calls(ast.parse(src), HARMONIC_FORMULAS), src
    assert not _looped_calls(ast.parse("h = harmonic_number(np.arange(5))\n"), HARMONIC_FORMULAS)
    assert "EULER_GAMMA" in _names(ast.parse("from .sequences import EULER_GAMMA\n"))
    assert "EULER_GAMMA" in _names(ast.parse("x = sequences.EULER_GAMMA\n"))


def _kind_writes(tree) -> list:
    """The line of every dict display with a "kind" key, every dict(kind=...)
    call and every assignment to a ["kind"] item."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            keys = [ast.Constant(kw.arg) for kw in node.keywords]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys = [node.slice]
        else:
            continue
        if any(isinstance(k, ast.Constant) and k.value == "kind" for k in keys):
            found.add(node.lineno)
    return sorted(found)


def test_only_sequences_writes_a_sequence_kind():
    writers = {m: lines for m, tree in _modules() if (lines := _kind_writes(tree))}
    assert set(writers) <= KIND_WRITERS, writers
    assert "sequences" in writers


def test_kind_detector_sees_displays_calls_and_item_assignments():
    for src in ('d = {"kind": "rearrangement", "head": []}\n', 'd = dict(kind="steps")\n',
                'd = {}\nd["kind"] = "finite"\n', 'return_value = [{"a": {"kind": 1}}]\n',
                'd = {**base, "kind": "x"}\n'):
        assert _kind_writes(ast.parse(src)), src
    for src in ('kind = d.get("kind")\n', 'd = {"space": spec.kind}\n', 'd = {"kinds": 1}\n',
                'if d["kind"] == "finite":\n    pass\n', 'keys = {"domain", "kind"}\n'):
        assert not _kind_writes(ast.parse(src)), src


def _unread_imports(tree) -> list:
    """Every name an import binds that the tree never reads (loads);
    `from __future__` imports bind none."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_reads():
    unread = {m: names for m, tree in _modules() if m != "__init__" and (names := _unread_imports(tree))}
    assert not unread, unread


def test_unread_import_detector_sees_every_import_form():
    for src, unread in (("import math\n", ["math"]), ("import numpy as np\n", ["np"]),
                        ("import os.path\n", ["os"]), ("from . import report\n", ["report"]),
                        ("from .sequences import IndexDomain, finite\nfinite(())\n", ["IndexDomain"]),
                        ("from .x import y as z\ny()\n", ["z"]), ("import math\nmath = 1\n", ["math"]),
                        ("def f():\n    import math\n    return 1\n", ["math"])):
        assert _unread_imports(ast.parse(src)) == unread, src
    for src in ("from __future__ import annotations\n", "import os.path\nos.getcwd()\n",
                "from . import report\nreport.emit()\n", "def f():\n    import math\n    return math.pi\n",
                "from typing import Optional\ndef f(x: Optional[int]) -> None:\n    pass\n",
                "try:\n    import scipy\nexcept ImportError:\n    scipy = None\nprint(scipy)\n"):
        assert not _unread_imports(ast.parse(src)), src
