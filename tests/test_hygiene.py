"""Source hygiene: no qrook module imports a name it never uses, nothing
can change a RatFunc after ``RatFunc.__new__`` builds it, only ``linalg`` builds a
Mat from a rows dict or writes into one, nothing rebinds qfield's memo
tables, no invariant rests on an ``assert`` statement or a raised
``AssertionError``, every exception class in ``errors.py`` is raised
somewhere, and every function, class and method of ``src/qrook`` is named
somewhere outside its own definition."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qrook"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
RATFUNC_FIELDS = {"num", "den", "sid"}
ATTRIBUTE_SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}
DICT_MUTATORS = {"setdefault", "pop", "popitem", "update", "clear", "__setitem__", "__delitem__"}
MEMO_TABLES = {"_SUMS", "_PRODUCTS", "_INTERN", "_AT"}


def unused_imports(source: str) -> list:
    """Names bound by import statements that no other node of the module
    reads.  ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detector_sees_unused_and_used_names():
    source = "from a import b, c\nimport d.e\nprint(c)\n"
    assert unused_imports(source) == ["b (line 1)", "d (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def field_writes(source: str) -> list:
    """Places that could change a RatFunc after it is built: an assignment
    to, or deletion of, an attribute named ``num``, ``den`` or ``sid``
    anywhere but ``RatFunc.__new__``, the one constructor, and every call
    of ``setattr``, ``delattr``, ``object.__setattr__`` or
    ``object.__delattr__``.  qrook needs none of those calls, and a static
    check cannot tell whether one targets a RatFunc.  Interned RatFuncs are
    shared by every holder, and the memo tables in ``qfield`` are exact
    only while this list is empty."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            where = f"{'.'.join(scope) or '<module>'} (line {getattr(child, 'lineno', '?')})"
            if (
                isinstance(child, ast.Attribute)
                and child.attr in RATFUNC_FIELDS
                and not isinstance(child.ctx, ast.Load)
                and scope != ("RatFunc", "__new__")
            ):
                found.append(f"{where}: .{child.attr}")
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ATTRIBUTE_SETTERS:
                    found.append(f"{where}: {name}()")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_detector_sees_field_writes():
    source = (
        "class RatFunc:\n"
        "    def __new__(cls, num, den):\n"
        "        self = object.__new__(cls)\n"
        "        self.num = num\n"
        "        self.den = den\n"
        "        self.sid = 0\n"
        "    def __init__(self, num, den):\n"
        "        self.num = num\n"
        "def f(r, rs):\n"
        "    r.num = ()\n"
        "    r.den += (1,)\n"
        "    for r.num in rs: pass\n"
        "    del r.den\n"
        "    object.__setattr__(r, 'num', ())\n"
        "    r.sid = 1\n"
        "    return r.num, r.den, r.sid\n"
        "setattr(R, 'den', ())\n"
    )
    assert field_writes(source) == [
        "RatFunc.__init__ (line 8): .num",
        "f (line 10): .num",
        "f (line 11): .den",
        "f (line 12): .num",
        "f (line 13): .den",
        "f (line 14): __setattr__()",
        "f (line 15): .sid",
        "<module> (line 17): setattr()",
    ]


def test_ratfunc_fields_are_assigned_only_in_the_constructor():
    found = [f"{p.name}: {w}" for p in sorted(SRC.glob("*.py")) for w in field_writes(p.read_text())]
    assert found == []


def _is_rows(node) -> bool:
    """Whether node is ``<expr>.rows`` or a subscript of one, like
    ``m.rows[i]`` or ``m.rows[i][j]``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "rows"


def mat_row_writes(source: str) -> list:
    """Places that could break the Mat invariant (no zero entry, no empty
    row), which ``Mat.__eq__`` and so ``verify`` rely on: a call of
    ``Mat(...)`` with a rows argument, an assignment to or deletion of
    ``.rows`` or an item of it, and a dict-mutating method called on
    either.  Only linalg, whose methods keep the invariant, may do these;
    elsewhere a Mat is built by its constructors and changed by ``set``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Mat" and (len(node.args) > 1 or any(kw.arg == "rows" for kw in node.keywords)):
                found.append(f"{where}: Mat(rows)")
            elif name in DICT_MUTATORS and isinstance(func, ast.Attribute) and _is_rows(func.value):
                found.append(f"{where}: .rows {name}()")
        elif isinstance(node, (ast.Attribute, ast.Subscript)) and not isinstance(node.ctx, ast.Load) and _is_rows(node):
            found.append(f"{where}: .rows write")
    return found


def test_detector_sees_mat_row_writes():
    source = (
        "def f(m, n, r):\n"
        "    a = Mat(n, r)\n"
        "    b = linalg.Mat(n, rows=r)\n"
        "    m.rows = {}\n"
        "    m.rows[0] = {}\n"
        "    m.rows[0][1] = r\n"
        "    del m.rows[0]\n"
        "    m.rows.setdefault(0, {})\n"
        "    m.rows[0].pop(1)\n"
        "    m.rows |= r\n"
        "    return Mat(n), Mat.identity(n), m.rows[0].get(1), m.rows.items(), r.pop()\n"
    )
    assert mat_row_writes(source) == [
        "line 2: Mat(rows)",
        "line 3: Mat(rows)",
        "line 4: .rows write",
        "line 5: .rows write",
        "line 6: .rows write",
        "line 7: .rows write",
        "line 8: .rows setdefault()",
        "line 9: .rows pop()",
        "line 10: .rows write",
    ]


def test_only_linalg_writes_mat_rows():
    found = [
        f"{p.name}: {w}"
        for p in sorted(SRC.glob("*.py"))
        if p.name != "linalg.py"
        for w in mat_row_writes(p.read_text())
    ]
    assert found == []


def memo_table_rebinds(source: str, defines: bool = False) -> list:
    """Places that could rebind one of qfield's memo tables (``_SUMS``,
    ``_PRODUCTS``, ``_INTERN``, ``_AT``): a store to or deletion of a name
    or attribute so called, and a ``setattr``/``delattr`` call (a
    monkeypatch's included) given the name as a string.  With ``defines``
    (the source is qfield) the first module-level assignment of each
    table is its definition.  ``linalg`` imports the tables by name and
    probes them inline, so a rebound table would leave it reading a stale
    dict; the tables may only be cleared in place."""
    tree = ast.parse(source)
    definitions = {}  # table name -> the target of its first module-level assignment
    if defines:
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name) and target.id in MEMO_TABLES:
                        definitions.setdefault(target.id, target)
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Name) and node.id in MEMO_TABLES:
            if not isinstance(node.ctx, ast.Load) and definitions.get(node.id) is not node:
                found.append(f"{where}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in MEMO_TABLES and not isinstance(node.ctx, ast.Load):
            found.append(f"{where}: .{node.attr}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in {"setattr", "delattr"}:
                for arg in node.args:
                    text = arg.value if isinstance(arg, ast.Constant) else None
                    if isinstance(text, str) and text.rpartition(".")[2] in MEMO_TABLES:
                        found.append(f"{where}: {name}({text!r})")
    return found


def test_detector_sees_memo_table_rebinds():
    source = (
        "_SUMS: dict = {}\n"
        "_AT = {}\n"
        "_SUMS = {}\n"
        "def f(qfield, monkeypatch):\n"
        "    global _PRODUCTS\n"
        "    _PRODUCTS = {}\n"
        "    qfield._INTERN = {}\n"
        "    _AT |= {}\n"
        "    del qfield._SUMS\n"
        "    monkeypatch.setattr(qfield, '_AT', {})\n"
        "    monkeypatch.setattr('qrook.qfield._PRODUCTS', {})\n"
        "    _SUMS.clear()\n"
        "    qfield._INTERN.clear()\n"
        "    monkeypatch.setattr(qfield, 'MEMO_LIMIT', 8)\n"
        "    return _SUMS.get(0), getattr(qfield, '_AT'), len(qfield._PRODUCTS)\n"
    )
    expected = [
        "line 3: _SUMS",
        "line 6: _PRODUCTS",
        "line 7: ._INTERN",
        "line 8: _AT",
        "line 9: ._SUMS",
        "line 10: setattr('_AT')",
        "line 11: setattr('qrook.qfield._PRODUCTS')",
    ]
    assert memo_table_rebinds(source, defines=True) == expected
    # outside qfield, the definitions are rebinds too
    assert memo_table_rebinds(source) == ["line 1: _SUMS", "line 2: _AT"] + expected


def test_memo_tables_are_never_rebound():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    found = [
        f"{p.name}: {w}"
        for p in paths
        for w in memo_table_rebinds(p.read_text(), defines=p == SRC / "qfield.py")
    ]
    assert found == []


def assert_statements(source: str) -> list:
    """Lines holding an ``assert`` statement.  ``python -O`` strips them, so
    an invariant that must hold under it is a raise, never an assert."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_detector_sees_assert_statements():
    source = (
        "def f(x):\n"
        "    assert x, 'message'\n"
        "    if not x:\n"
        "        raise ValueError(x)\n"
        "    return 'assert x'\n"
        "class C:\n"
        "    def g(self):\n"
        "        assert self.ok\n"
    )
    assert assert_statements(source) == ["line 2", "line 8"]


def test_no_assert_statements():
    found = [f"{p.name}: {w}" for p in sorted(SRC.glob("*.py")) for w in assert_statements(p.read_text())]
    assert found == []


def raise_faults(errors_source: str, sources: dict) -> list:
    """Each ``raise AssertionError``, which reads as a failed ``assert``
    and names no fault, and each exception class of ``errors_source``
    that no module of ``sources`` (name -> source) raises."""
    found, raised = [], set()
    for name, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            exc = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            if exc == "AssertionError":
                found.append(f"{name} (line {node.lineno}): raise AssertionError")
            raised.add(exc)
    classes = [node.name for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)]
    return found + [f"{cls} is never raised" for cls in classes if cls not in raised]


def test_detector_sees_assertion_errors_and_dead_exception_classes():
    errors = "class Used(ValueError): pass\nclass Chained(Exception): pass\nclass Dead(RuntimeError): pass\n"
    sources = {
        "a.py": "def f(x):\n    if x:\n        raise AssertionError(x)\n    raise Used('x')\n",
        "b.py": (
            "def g():\n"
            "    try:\n"
            "        pass\n"
            "    except KeyError as exc:\n"
            "        raise errors.Chained() from exc\n"
            "    except ValueError:\n"
            "        raise\n"
            "    raise builtins.AssertionError\n"
            "Dead = 'Dead'\n"
        ),
    }
    assert raise_faults(errors, sources) == [
        "a.py (line 3): raise AssertionError",
        "b.py (line 8): raise AssertionError",
        "Dead is never raised",
    ]


def test_no_assertion_errors_and_every_exception_class_is_raised():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert raise_faults(sources["errors.py"], sources) == []


def unreferenced_definitions(sources: dict, defining: set) -> list:
    """Each module-level function or class, and each non-dunder method,
    of a module in ``defining`` whose name no module of ``sources`` (name
    -> source) uses outside its own ``def``: as a name, an attribute or
    an imported name.  A wrapper whose last caller went shows up here."""
    definitions, references = [], []
    for name, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((node.id, name, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                references += [(alias.name, name, node.lineno) for alias in node.names]
        if name not in defining:
            continue
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for child in [node] + members:
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    if child is node or not (child.name.startswith("__") and child.name.endswith("__")):
                        definitions.append((child.name, name, child.lineno, child.end_lineno))
    return [
        f"{where} (line {first}): {ident}"
        for ident, where, first, last in definitions
        if not any(r == ident and (at != where or not first <= line <= last) for r, at, line in references)
    ]


def test_detector_sees_unreferenced_definitions():
    sources = {
        "lib.py": (
            "def used(x):\n"
            "    return helper(x)\n"
            "def helper(x):\n"
            "    return x\n"
            "def recursive(x):\n"
            "    return recursive(x - 1)\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.open()\n"
            "    def open(self):\n"
            "        pass\n"
            "    def shut(self):\n"
            "        pass\n"
            "    def attribute_elsewhere(self):\n"
            "        pass\n"
            "class Dead:\n"
            "    pass\n"
        ),
        "test_lib.py": "from lib import used\nused(1).attribute_elsewhere()\nBox()\n",
    }
    assert unreferenced_definitions(sources, {"lib.py"}) == [
        "lib.py (line 5): recursive",
        "lib.py (line 12): shut",
        "lib.py (line 16): Dead",
    ]


def test_every_definition_is_referenced():
    sources = {f"src/{p.name}": p.read_text() for p in SRC.glob("*.py")}
    sources |= {f"tests/{p.name}": p.read_text() for p in TESTS.glob("*.py")}
    assert unreferenced_definitions(sources, {name for name in sources if name.startswith("src/")}) == []
