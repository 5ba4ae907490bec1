"""Every name a library module imports is used in that module, and no module imports ``dataclasses``.

Read with the standard ``ast`` module, so nothing is imported or run.  The
package ``__init__`` is left out of the unused-import check: its imports
are the public API.  ``dataclasses`` (and the ``inspect`` module it loads)
would add about a third to the library's import time, which every CLI call
pays; one check runs the import in a fresh interpreter to confirm neither
is loaded.  The imports between the package's modules, those inside
functions included, form no cycle.  No floating point enters a rank: the
only true division in ``linalg`` is the one inside its exact ``quotient``.
``cli`` names no knot pathway: ``surgery --compare`` reads them all from
``crosscheck.pathway_values``.  No library module forms a homology class
or its representative: the level table is read off integer ranks, and the
homology with representatives is the tests' oracle (``level_oracle``).
No library module but ``linalg`` reads a map's column index ``columns``,
except ``KnotComplex.integer_maps``, a model's one integer form, which
``cone`` reads in place of the maps.  The README names every module-level
``MAX_*`` limit of the library, and no limit that the library lacks.
"""
import ast
import graphlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "knotsurgery"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that no other part of it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = ("import math\nfrom itertools import accumulate, combinations\n"
              "x = accumulate(math.pi)\n")
    assert unused_imports(source) == [(2, "combinations")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set:
    """Top-level names of every module that ``source`` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_check_finds_a_dataclasses_import():
    source = "import dataclasses.x as y\nfrom dataclasses import field\nfrom . import cone\n"
    assert imported_modules(source) == {"dataclasses"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    assert "dataclasses" not in imported_modules(path.read_text())


def test_importing_the_package_and_cli_loads_neither_dataclasses_nor_inspect():
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import knotsurgery, knotsurgery.cli\n"
             "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=SRC.parent, check=True)
    assert done.stdout.strip() == ""


def package_imports(source: str) -> set:
    """Modules of this package that ``source`` imports, at any depth (inside functions too)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else (a.name for a in node.names))
    return names


def import_cycle(graph: dict) -> list:
    """One cycle of ``graph`` ({module: imported modules}) as a path, or [] when it has none."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return []


def test_the_check_finds_an_import_cycle():
    source = "from . import cone, linalg\ndef f():\n    from .knotcx import x\n"
    assert package_imports(source) == {"cone", "linalg", "knotcx"}
    assert len(import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}})) == 4
    assert import_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []


def test_the_package_import_graph_has_no_cycle():
    graph = {p.stem: package_imports(p.read_text()) for p in MODULES}
    assert import_cycle(graph) == []


def true_divisions(source: str) -> list:
    """(line, enclosing function or None) of every ``/`` and ``/=`` in ``source``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                found.append((child.lineno, func))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else func)

    visit(ast.parse(source), None)
    return found


def test_the_check_finds_a_stray_division():
    source = ("def quotient(a, b):\n    return a / b  # a / b\n"
              "def half(x):\n    x /= 2\n    return x // 1\n"
              "y = 1 / 3\n")
    assert true_divisions(source) == [(2, "quotient"), (4, "half"), (6, None)]


def test_linalg_divides_only_in_quotient():
    assert [f for _, f in true_divisions((SRC / "linalg.py").read_text())] == ["quotient"]


PATHWAY_NAMES = {"build_cone_problem", "large_surgery_dim", "genus_one_positive_ladder",
                 "thin_surgery_formula"}


def names_in(source: str) -> set:
    """Every name ``source`` reads or imports, attribute names included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_the_check_finds_a_pathway_name():
    source = ("from .cone import large_surgery_dim as lsd\n"
              "x = cone.build_cone_problem(K, 1, 1).dimension()\n")
    assert names_in(source) & PATHWAY_NAMES == {"large_surgery_dim", "build_cone_problem"}


def test_cli_names_no_knot_pathway():
    assert names_in((SRC / "cli.py").read_text()) & PATHWAY_NAMES == set()



REPRESENTATIVE_NAMES = {"Homology", "HomologyClass", "express", "rep_vec"}


def representative_names(source: str) -> set:
    """The names of REPRESENTATIVE_NAMES that ``source`` defines, reads or imports."""
    names = names_in(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names & REPRESENTATIVE_NAMES


def test_the_check_finds_a_class_representative():
    source = ("class Homology:\n    def express(self, vec):\n        pass\n"
              "def f(c):\n    return c.rep_vec()\n"
              "from .linalg import HomologyClass as H\n")
    assert representative_names(source) == REPRESENTATIVE_NAMES
    assert representative_names("def homology(sizes, ranks, shift):\n    pass\n") == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_forms_a_class_representative(path):
    assert representative_names(path.read_text()) == set()


def column_index_reads(source: str) -> list:
    """Lines of ``source`` outside ``integer_maps`` that name ``columns``, a map's column index."""
    tree = ast.parse(source)
    allowed = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "integer_maps"
               for node in ast.walk(fn)}
    return sorted({node.lineno for node in ast.walk(tree) if id(node) not in allowed and (
        isinstance(node, ast.Attribute) and node.attr == "columns"
        or isinstance(node, ast.Constant) and node.value == "columns")})


def test_the_check_finds_a_column_index_read():
    source = ("P = K.d_plus.columns\n"
              "M = getattr(K.d_minus, 'columns')\n"
              "cols = K.integer_maps\n"
              "def integer_maps(self):\n"
              "    return self.d_plus.columns\n")
    assert column_index_reads(source) == [1, 2]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_only_linalg_reads_the_column_index(path):
    assert column_index_reads(path.read_text()) == []


def test_the_cone_reads_a_model_only_through_its_integer_maps():
    """``cone`` names no map's entries or columns: its maps are ``K.integer_maps``."""
    names = {node.attr for node in ast.walk(ast.parse((SRC / "cone.py").read_text()))
             if isinstance(node, ast.Attribute)}
    assert "integer_maps" in names
    assert not names & {"d_plus", "d_minus", "entries", "columns", "column", "apply"}


README = SRC.parent.parent / "README.md"


def module_limits(source: str) -> set:
    """Names of the ``MAX_*`` constants that ``source`` assigns at module level."""
    names = set()
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        names.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.startswith("MAX_"))
    return names


def named_limits(text: str) -> set:
    """Every ``MAX_*`` name in ``text``, qualified (``cone.MAX_X``) or not."""
    return set(re.findall(r"\bMAX_[A-Z0-9_]+\b", text))


def test_the_check_finds_a_stale_limit():
    source = ("MAX_A = 1\nMAX_B: int = 2\nclass C:\n    MAX_C = 3\n"
              "def f():\n    MAX_D = 4\n    return MAX_A\n")
    assert module_limits(source) == {"MAX_A", "MAX_B"}
    readme = "at most 2 (`cone.MAX_A`), and MAX_OLD_2 cells, MAX_B."
    assert named_limits(readme) - module_limits(source) == {"MAX_OLD_2"}
    assert module_limits(source) - named_limits(readme) == set()


def test_the_readme_names_every_limit_and_no_other():
    defined = set().union(*(module_limits(p.read_text()) for p in SRC.glob("*.py")))
    named = named_limits(README.read_text())
    assert defined - named == set(), "limits the README does not name"
    assert named - defined == set(), "README names of limits that src does not define"
