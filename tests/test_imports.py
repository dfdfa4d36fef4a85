"""Every name a library module imports is used in that module, every
top-level definition of a library module, and every method, property or
annotated field of a top-level class apart from dunder names, is referenced
somewhere, and the library imports nothing but the standard library, numpy
and itself (numpy is its only declared dependency).  No library module
calls ``np.poly``: ``numkit.charpoly`` is the one characteristic
polynomial.  Every random draw of the library comes from a generator
made by a seeded ``np.random.default_rng(<seed>)``: no legacy global-state
``np.random`` call, no unseeded ``default_rng()``, and no ``random``
module.  No library module calls numpy's ``as_strided``: a strided
view is taken through ``sliding_window_view``, whose views are read-only
and bounds-checked.  No ``report.add`` call of the library passes the
literal verdict ``True``: a report row is a condition that data can
fail.  No library module but ``numkit`` imports ``fractions``:
exact matrices hold integer numerators over one denominator, the
``bowcli`` parser hands ``numkit`` the integer parts of each entry, and
only ``numkit``'s exact scalar ``GaussianRational`` is a pair of
Fractions.  No three consecutive code lines of the library appear twice
in it: a rule is written once and called, unless ``REPEATS_ALLOWED``
names the definition that repeats it with the reason it does.

The package ``__init__`` is skipped (it re-exports), and so is an import
line marked ``# noqa: F401``, the marker of a deliberate re-export.  A
definition counts as referenced when its name is read anywhere in the
library, the tests or the benchmark: a top-level one as a name, an
attribute or an imported name, a class member as an attribute read or a
keyword argument only.  A definition that only the tests read fails too, unless
``TEST_ONLY`` names it with the reason it stays.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bowmonad"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
LIBRARY_READERS = sorted([*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
READERS = sorted([*LIBRARY_READERS, *(ROOT / "tests").glob("*.py")])

# library definitions that only the tests read, each with why it stays
TEST_ONLY = {
    "DivisorClass.is_zero": "Picard lattice, kept for splitting types "
                            "read from the Hilbert function",
    "HEXAGON_ORDER": "Picard lattice: the cyclic order of the -1 curves, "
                     "kept for the same",
    "principal_class": "Picard lattice: the chart functions' divisors, "
                       "kept for the same",
    "sections_on_line": "h0 of one twisted line restriction, the entry "
                        "point of the line-invariant tables",
    "SectionSpace.h1_dim": "the left-column H^1 share of the h0 that "
                           "sections_on_line reports",
    "psi_pushdown_monad": "the independent cross-check of the fused "
                          "Taub-NUT monad, with its own block table",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_scanner_flags_an_unused_import():
    src = "import os\nfrom a import b, c as d\nfrom e import f  # noqa: F401\nd(os)\n"
    assert unused_imports(src) == ["b (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(sources) -> tuple[set[str], set[str]]:
    """(names, members): the names read anywhere in the sources as a name,
    an attribute or an imported name, which is how a top-level definition
    is read, and those read as an attribute or passed as a keyword
    argument, the only ways a class member is read.  A local variable that
    shares a member's name reads nothing of the class."""
    names, members = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    members.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                members.add(node.arg)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    return names, members


def unreferenced_definitions(source: str, referenced) -> list[str]:
    names, members = referenced
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, ast.Assign):
            defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        out += [f"{name} (line {node.lineno})" for name in defined
                if name not in names]
        if isinstance(node, ast.ClassDef):
            # dunder names are called implicitly
            for f in node.body:
                name = _member_name(f)
                if (name and not (name.startswith("__") and name.endswith("__"))
                        and name not in members):
                    out.append(f"{node.name}.{name} (line {f.lineno})")
    return out


def _member_name(node):
    """The name a class-body statement defines as a method, a property or
    an annotated (dataclass) field; None for any other statement."""
    if isinstance(node, ast.FunctionDef):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def test_scanner_flags_an_unreferenced_definition():
    lib = "def used(): pass\ndef dead(): pass\nclass Kept: pass\nX = 1\n"
    reader = "from lib import used\nlib.Kept()\nprint(X)\n"
    refs = referenced_names([lib, reader])
    assert unreferenced_definitions(lib, refs) == ["dead (line 2)"]


def test_scanner_flags_an_unreferenced_method():
    lib = ("class Kept:\n    def __radd__(self, o): pass\n"
           "    def used(self): pass\n    @property\n    def size(self): pass\n"
           "    def dead(self): pass\n")
    reader = "Kept().used()\nprint(Kept().size)\n"
    refs = referenced_names([lib, reader])
    assert unreferenced_definitions(lib, refs) == ["Kept.dead (line 6)"]


def test_scanner_flags_an_unreferenced_field():
    lib = ("@dataclass\nclass Kept:\n    used: int\n    dead: float = 1.0\n"
           "    label = 'x'\n    def size(self): return self.used\n")
    reader = "print(Kept(1).size(), Kept.label)\n"
    refs = referenced_names([lib, reader])
    assert unreferenced_definitions(lib, refs) == ["Kept.dead (line 4)"]


def test_scanner_flags_a_member_read_only_as_a_local_name():
    """A member is read through an attribute or a keyword argument; a local
    variable of the same name, or a store to the attribute, reads nothing."""
    lib = ("@dataclass\nclass Lattice:\n    sol: int\n    point: tuple\n"
           "    gap: float\n    h: float\n"
           "def make(sol, point):\n    return Lattice(sol, point, 0.0, "
           "h=0.5)\n")
    reader = ("lat = make(1, (0, 0))\nsol, point = 1, lat.point\n"
              "lat.gap = 2.0\nprint(sol, point)\n")
    refs = referenced_names([lib, reader])
    assert unreferenced_definitions(lib, refs) == ["Lattice.sol (line 3)",
                                                   "Lattice.gap (line 5)"]


def test_no_unreferenced_definitions():
    refs = referenced_names(p.read_text() for p in READERS)
    dead = {p.name: unreferenced_definitions(p.read_text(), refs)
            for p in MODULES}
    assert {name: d for name, d in dead.items() if d} == {}


def test_no_definitions_only_tests_read():
    """Read without the tests, the unreferenced definitions are exactly
    those TEST_ONLY names: a new test-only one fails, and so does a stale
    entry."""
    refs = referenced_names(p.read_text() for p in LIBRARY_READERS)
    test_only = {entry.split(" (line")[0] for p in MODULES
                 for entry in unreferenced_definitions(p.read_text(), refs)}
    assert test_only == set(TEST_ONLY)


ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy", "bowmonad"}


def foreign_imports(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [f"{name} (line {node.lineno})" for name in names
                if name.split(".")[0] not in ALLOWED_TOP_LEVEL]
    return out


def test_scanner_flags_a_foreign_import():
    src = ("import json, scipy.linalg\nfrom hypothesis import given\n"
           "from . import numkit\nimport numpy as np\n"
           "from bowmonad.numkit import GQ\nfrom collections import abc\n")
    assert foreign_imports(src) == ["scipy.linalg (line 1)",
                                    "hypothesis (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_library_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text()) == []


def poly_uses(source: str) -> list[str]:
    """Every read of numpy's ``poly``, as ``np.poly``/``numpy.poly`` or
    imported from numpy."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "poly"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            out.append(f"{node.value.id}.poly (line {node.lineno})")
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
              and any(alias.name == "poly" for alias in node.names)):
            out.append(f"from numpy import poly (line {node.lineno})")
    return out


def test_scanner_flags_np_poly():
    src = ("import numpy as np\nfrom numpy import poly, roots\n"
           "c = np.poly(M)\nd = numpy.poly(M)\nnk.charpoly(M)\n"
           "x = np.polyfit(a, b, 1)\n")
    assert poly_uses(src) == ["from numpy import poly (line 2)",
                              "np.poly (line 3)", "numpy.poly (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_np_poly_in_library(path):
    assert poly_uses(path.read_text()) == []


def unseeded_draws(source: str) -> list[str]:
    """Every random draw not made from a seeded ``np.random.default_rng``:
    a call of any other ``np.random``/``numpy.random`` function (the
    legacy global state), ``default_rng`` with no seed or a None seed, and
    an import of ``numpy.random`` names or of the ``random`` module.  Type
    reads such as ``np.random.Generator`` in an annotation are not draws."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "random"
                and isinstance(node.func.value.value, ast.Name)
                and node.func.value.value.id in ("np", "numpy")):
            name = f"{node.func.value.value.id}.random.{node.func.attr}"
            seeds = [*node.args, *(kw.value for kw in node.keywords)]
            if node.func.attr != "default_rng":
                out.append(f"{name} (line {node.lineno})")
            elif not seeds or (isinstance(seeds[0], ast.Constant)
                               and seeds[0].value is None):
                out.append(f"unseeded {name} (line {node.lineno})")
        elif isinstance(node, ast.Import):
            out += [f"import {alias.name} (line {node.lineno})"
                    for alias in node.names
                    if alias.name in ("random", "numpy.random")]
        elif (isinstance(node, ast.ImportFrom)
              and node.module in ("random", "numpy.random")):
            out.append(f"from {node.module} import (line {node.lineno})")
    return out


def test_scanner_flags_unseeded_draws():
    src = ("import numpy as np\nimport random\n"
           "from numpy.random import default_rng\n"
           "a = np.random.default_rng(7).standard_normal(3)\n"
           "b = np.random.standard_normal(3)\nnp.random.seed(0)\n"
           "c = np.random.default_rng()\nd = numpy.random.default_rng(None)\n"
           "e = np.random.default_rng(seed=args.seed)\n"
           "def f(rng: np.random.Generator): return rng.random()\n"
           "g = np.random.default_rng(seed=None)\n")
    assert unseeded_draws(src) == [
        "import random (line 2)", "from numpy.random import (line 3)",
        "np.random.standard_normal (line 5)", "np.random.seed (line 6)",
        "unseeded np.random.default_rng (line 7)",
        "unseeded numpy.random.default_rng (line 8)",
        "unseeded np.random.default_rng (line 11)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_library_draws_only_from_seeded_generators(path):
    assert unseeded_draws(path.read_text()) == []


def as_strided_uses(source: str) -> list[str]:
    """Every read of ``as_strided``, as an attribute of any module or
    imported by name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "as_strided":
            out.append(f".as_strided (line {node.lineno})")
        elif (isinstance(node, ast.ImportFrom)
              and any(alias.name == "as_strided" for alias in node.names)):
            out.append(f"from {node.module} import as_strided "
                       f"(line {node.lineno})")
    return out


def test_scanner_flags_as_strided():
    src = ("import numpy as np\n"
           "from numpy.lib.stride_tricks import as_strided, sliding_window_view\n"
           "a = np.lib.stride_tricks.as_strided(x, (2, 2), (8, 8))\n"
           "b = sliding_window_view(x, 3, axis=0)\n"
           "c = stride_tricks.as_strided(x)\n")
    assert as_strided_uses(src) == [
        "from numpy.lib.stride_tricks import as_strided (line 2)",
        ".as_strided (line 3)", ".as_strided (line 5)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_as_strided_in_library(path):
    assert as_strided_uses(path.read_text()) == []


def literal_true_verdicts(source: str) -> list[str]:
    """Every ``report.add`` call whose verdict, its second argument or
    ``passed=``, is the literal ``True``.  A literal ``False`` stays
    allowed: it fails a row whose decision could not be made."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "report"):
            continue
        verdicts = [*node.args[1:2],
                    *(kw.value for kw in node.keywords if kw.arg == "passed")]
        if any(isinstance(v, ast.Constant) and v.value is True
               for v in verdicts):
            out.append(f"report.add (line {node.lineno})")
    return out


def test_scanner_flags_a_literal_true_verdict():
    src = ("report.add('a', True, 0.0)\nreport.add('b', False, np.inf)\n"
           "report.add('c', res < 1e-10, res)\nreport.add('d', passed=True)\n"
           "report.add('e', 1)\nchecks.add('f', True)\nnp.add(x, True)\n")
    assert literal_true_verdicts(src) == ["report.add (line 1)",
                                          "report.add (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_report_row_that_cannot_fail(path):
    assert literal_true_verdicts(path.read_text()) == []


FRACTION_MODULES = {"numkit.py", "bowcli.py"}


def fractions_imports(source: str) -> list[str]:
    """Every import of the ``fractions`` module or of a name from it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [f"import {alias.name} (line {node.lineno})"
                    for alias in node.names
                    if alias.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            out.append(f"from fractions import (line {node.lineno})")
    return out


def test_scanner_flags_fractions_imports():
    src = ("import fractions\nfrom fractions import Fraction\n"
           "import json, fractions as fr\nfrom .numkit import Fraction\n"
           "x = numkit.Fraction(1, 2)\n")
    assert fractions_imports(src) == ["import fractions (line 1)",
                                      "from fractions import (line 2)",
                                      "import fractions (line 3)"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                         if p.name not in FRACTION_MODULES),
                         ids=lambda p: p.name)
def test_fractions_only_in_numkit_and_bowcli(path):
    assert fractions_imports(path.read_text()) == []


def test_bowcli_parses_exact_json_without_fractions():
    """With the modules above, only numkit imports fractions."""
    assert fractions_imports((SRC / "bowcli.py").read_text()) == []


# top-level definitions whose repeated lines stay, each with why
REPEATS_ALLOWED = {
    "nahmbow.flow": "the unrolled RK4 stages: the same NumPy calls in the "
                    "same order keep the samples the same bit for bit",
    "taubnut.psi_pushdown_monad": "the independent cross-check of the fused "
                                  "Taub-NUT monad, with its own block table",
    "numkit.GaussianRational": "each operator coerces its own operand and "
                               "returns NotImplemented for a foreign one",
}


def _code_lines(source: str) -> list[tuple[int, str | None, str]]:
    """(line number, stripped text, top-level definition) per line of
    source; the text is None for a line that is shorter than 13
    characters, a comment, a docstring line or an annotated class field,
    and the definition is "" outside one."""
    tree = ast.parse(source)
    skip, owner = set(), {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            skip.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.AnnAssign):
                    skip.update(range(f.lineno, f.end_lineno + 1))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1),
                                       node.name))
    out = []
    for n, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        keep = len(text) >= 13 and not text.startswith("#") and n not in skip
        out.append((n, text if keep else None, owner.get(n, "")))
    return out


def repeated_lines(sources: dict, allowed=()) -> list[str]:
    """Every run of three consecutive code lines (see ``_code_lines``) of
    the sources, a dict from module name to source, that repeats a run met
    before, as "<module>.<definition> line <n>: <first line>" of the later
    copy.  A run whose first line lies in a definition that ``allowed``
    names, as "<module>.<definition>", counts as neither."""
    seen, out = set(), []
    for module, source in sources.items():
        lines = _code_lines(source)
        for (n, a, where), (_, b, _), (_, c, _) in zip(lines, lines[1:],
                                                        lines[2:]):
            if None in (a, b, c) or f"{module}.{where}" in allowed:
                continue
            if (a, b, c) in seen:
                out.append(f"{module}.{where} line {n}: {a}")
            seen.add((a, b, c))
    return out


def test_scanner_flags_repeated_lines():
    lib = ('"""Docstring line that repeats itself.\n'
           'Docstring line that repeats itself.\n'
           'Docstring line that repeats itself."""\n'
           "def first(data):\n"
           "    report = validate(data)\n"
           "    if not report.passed:\n"
           "        raise Refused(report)\n"
           "    x = 1\n"
           "@dataclass\n"
           "class Fields:\n"
           "    first_field: int\n"
           "    second_field: int\n"
           "    third_field: int\n"
           "def second(data):\n"
           "    # a comment that repeats\n"
           "    # a comment that repeats\n"
           "    # a comment that repeats\n"
           "    report = validate(data)\n"
           "    if not report.passed:\n"
           "        raise Refused(report)\n"
           "    x = 1\n"
           "    x = 1\n"
           "    x = 1\n"
           "class Allowed:\n"
           "    first_field: int\n"
           "    second_field: int\n"
           "    third_field: int\n"
           "    def run(self, data):\n"
           "        report = validate(data)\n"
           "        if not report.passed:\n"
           "            raise Refused(report)\n")
    other = ("def third(data):\n"
             "    report = validate(data)\n"
             "    if not report.passed:\n"
             "        raise Refused(report)\n")
    sources = {"lib": lib, "other": other}
    assert repeated_lines(sources, {"lib.Allowed"}) == [
        "lib.second line 18: report = validate(data)",
        "other.third line 2: report = validate(data)"]
    assert repeated_lines(sources) == [
        "lib.second line 18: report = validate(data)",
        "lib.Allowed line 29: report = validate(data)",
        "other.third line 2: report = validate(data)"]


def _library_sources() -> dict:
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def test_no_repeated_lines_in_library():
    assert repeated_lines(_library_sources(), REPEATS_ALLOWED) == []


def test_each_allowed_repeat_is_still_there():
    """A stale REPEATS_ALLOWED entry fails: each named definition still
    repeats three lines."""
    flagged = {entry.split(" line ")[0]
               for entry in repeated_lines(_library_sources())}
    assert set(REPEATS_ALLOWED) <= flagged
