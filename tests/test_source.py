"""Source hygiene: every package module uses each name it imports, every
name in its __all__ is one it defines or imports, every private top-level
helper is referred to somewhere in the package, no module holds a mutable
container at module or class level or as a default argument, every budget
is read and documented, JSON reaches standard output only through
`cli._emit_json`, the table constructors keep their signatures, and only
the private routes build an object without its checks, and only
`budgets.gate` refuses a count over its budget."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from cohomoring.budgets import Budgets
from cohomoring.cocycles import CrossedHom
from cohomoring.groups import ActionTable, FiniteGroup, GroupHom
from cohomoring.rings import FiniteRing

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cohomoring"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def _used_names(tree: ast.AST) -> set:
    """Names read anywhere in the module, including inside string annotations
    such as "GroupHom" and the strings of __all__."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in _used_names(tree))
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


def _bound_names(body) -> set:
    """Names that the statements of a module body define or import,
    including those under top-level if and try blocks."""
    bound = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", []),
                          *(h.body for h in getattr(node, "handlers", []))):
                bound |= _bound_names(block)
    return bound


@pytest.mark.parametrize("module", ALL_MODULES)
def test_all_names_exist(module):
    """A stale __all__ entry makes `from cohomoring.<module> import *` raise."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    exported = []
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported += ast.literal_eval(node.value)
    missing = sorted(set(exported) - _bound_names(tree.body))
    assert not missing, f"{module} exports names it never defines: {', '.join(missing)}"


def _private_definitions(tree: ast.Module) -> set:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")}


def _references(tree: ast.AST) -> set:
    """Names read or imported anywhere, and attribute names, as in
    `groups._hom_rows`."""
    out = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
    return out


def test_private_helpers_are_referenced():
    """A `_`-prefixed top-level function or class that nothing in the package
    refers to is dead code left behind by a deletion."""
    trees = {m: ast.parse((PACKAGE / m).read_text(encoding="utf-8")) for m in ALL_MODULES}
    referenced = set().union(*map(_references, trees.values()))
    dead = sorted(f"{m}: {name}" for m, tree in trees.items()
                  for name in _private_definitions(tree) - referenced)
    assert not dead, f"private helpers nothing refers to: {', '.join(dead)}"


_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict"}
_BLOCKS = (ast.If, ast.Try, ast.With, ast.For, ast.While, ast.ExceptHandler)


def _is_container(value) -> bool:
    """A dict, list or set literal or comprehension, or a dict(), list(),
    set() or defaultdict() call (also as `collections.defaultdict()`)."""
    if isinstance(value, _CONTAINERS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in _CONTAINER_CALLS
    return False


def _shared_containers(body, owner: str) -> list:
    """`owner:line` of each statement of a module or class body (and of the
    if, try, with and loop blocks in it) that binds a container to a name
    other than __all__; a class attribute is one object for every
    instance, as a module global is for every caller."""
    found = []
    for node in body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_container(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if not all(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                found.append(f"{owner}:{node.lineno}")
        elif isinstance(node, ast.ClassDef):
            found += _shared_containers(node.body, f"{owner}.{node.name}")
        elif isinstance(node, _BLOCKS):
            for block in ("body", "orelse", "finalbody", "handlers"):
                found += _shared_containers(getattr(node, block, []), owner)
    return found


def _function_containers(tree: ast.Module, module: str) -> list:
    """`module:line` of each function that assigns a container to a name it
    declares global, or whose default argument is a container or any other
    call (such as `SweepStore()`): a default is built once, when the
    function is defined, and every call shares it."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = func.args.defaults + [d for d in func.args.kw_defaults if d is not None]
            names = {n for node in ast.walk(func) if isinstance(node, ast.Global)
                     for n in node.names}
            if any(_is_container(d) or isinstance(d, ast.Call) for d in defaults) or any(
                    isinstance(node, ast.Assign) and _is_container(node.value)
                    and any(isinstance(t, ast.Name) and t.id in names for t in node.targets)
                    for node in ast.walk(func)):
                found.append(f"{module}:{func.lineno}")
    return found


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_module_level_containers(module):
    """No module binds a dict, list or set at module or class level, or as
    a default argument, so every cache lives on an object or in one sweep's
    `SweepStore`, and a budget read per call cannot be shadowed by a value
    a process kept."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    found = _shared_containers(tree.body, module) + _function_containers(tree, module)
    assert not found, f"process-wide containers at {', '.join(found)}"


def test_container_check_sees_each_form():
    """The check above flags every binding form it names, and passes
    __all__, a frozen default and containers local to a function."""
    flagged = ["A = {}", "A: dict = {1: 2}", "A = [x for x in ()]", "A = {x for x in ()}",
               "A = dict()", "A = list()", "A = set()", "A = collections.defaultdict(list)",
               "class K:\n    cache = {}", "if True:\n    A = []",
               "def f():\n    global A\n    A = {}", "def f(a=[]):\n    pass",
               "def f(*, store=SweepStore()):\n    pass", "g = lambda a={}: a"]
    passed = ["__all__ = ['f']", "A = (1, 2)", "A = frozenset()", "def f():\n    a = {}",
              "def f(a=None, b=0, *, c=()):\n    pass",
              "class K:\n    def f(self):\n        self.a = {}"]
    for source in flagged + passed:
        tree = ast.parse(source)
        found = _shared_containers(tree.body, "m") + _function_containers(tree, "m")
        assert bool(found) == (source in flagged), source


def _is_json_call(node, names) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
            and node.func.attr in names)


def _json_output_sites(tree: ast.AST, module: str) -> list:
    """`module:line` of each `json.dump` call, each `json.dumps` call with
    an indent, and each print or `.write` call handed a `json.dumps` text."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        indented = _is_json_call(node, {"dumps"}) and any(k.arg == "indent" for k in node.keywords)
        printing = ((isinstance(node.func, ast.Name) and node.func.id == "print")
                    or (isinstance(node.func, ast.Attribute) and node.func.attr == "write"))
        if _is_json_call(node, {"dump"}) or indented or (printing and any(
                _is_json_call(n, {"dumps"}) for arg in node.args for n in ast.walk(arg))):
            found.append(f"{module}:{node.lineno}")
    return found


def test_json_output_has_one_writer():
    """`cli._emit_json` is the one function that prints JSON: no module
    dumps JSON with an indent, prints or writes a `json.dumps` text or
    calls `json.dump`, and every `if args.json:` branch of the CLI prints
    through `_emit_json`."""
    found = [site for m in ALL_MODULES
             for site in _json_output_sites(ast.parse((PACKAGE / m).read_text(encoding="utf-8")), m)]
    assert not found, f"JSON printed outside cli._emit_json at {', '.join(found)}"
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    branches = [node for node in ast.walk(cli)
                if isinstance(node, ast.If) and ast.unparse(node.test) == "args.json"]
    assert len(branches) == 8  # group, extension, z1, h2, endo, ring, verify, examples
    for branch in branches:
        calls = {n.func.id for stmt in branch.body for n in ast.walk(stmt)
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        assert "_emit_json" in calls and "print" not in calls, f"cli.py:{branch.lineno}"
    for source, flagged in (("print(json.dumps(x))", True), ("json.dump(x, fh)", True),
                            ("s = json.dumps(x, indent=2)", True),
                            ("sys.stdout.write(json.dumps(x) + '\\n')", True),
                            ("key = json.dumps(x, sort_keys=True)", False),
                            ("print(json.loads(s))", False)):
        assert bool(_json_output_sites(ast.parse(source), "m")) == flagged, source


def _own_nodes(func):
    """The nodes of a function's body, without those of functions nested in it."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _light_row_builders(tree: ast.AST) -> list:
    """Names of the functions that scale equation rows into Z/L: that
    multiply by L // d, directly or through a name bound to it, as each
    builder of Light's rows over module coordinates must."""
    def is_scale(node):
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                and isinstance(node.left, ast.Name) and node.left.id == "L")

    scales = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and is_scale(node.value) for t in node.targets if isinstance(t, ast.Name)}

    def scaling(node):
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return is_scale(node) or (isinstance(node, ast.Name) and node.id in scales)

    def scales_rows(node):
        if isinstance(node, ast.AugAssign):
            return isinstance(node.op, ast.Mult) and scaling(node.value)
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and (scaling(node.left) or scaling(node.right)))

    return [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            and any(scales_rows(n) for n in _own_nodes(func))]


def test_light_rows_have_one_builder():
    """`cohomology2` writes Light's cocycle identity as integer rows in one
    function, and `_h2_linear` and `h2_order` both call it."""
    tree = ast.parse((PACKAGE / "cohomology2.py").read_text(encoding="utf-8"))
    [builder] = _light_row_builders(tree)
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and func.name in ("_h2_linear", "h2_order"):
            calls = {n.func.id for n in ast.walk(func)
                     if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
            assert builder in calls, func.name
    for source, flagged in (
            ("def f():\n    scale = L // dvec\n    e = e.reshape(s, c, a) * scale[None, :, None]",
             ["f"]),
            ("def f():\n    scale = (L // factors)[:, None]\n"
             "    def g(xs):\n        return eq * scale % L\n    return g", ["g"]),
            ("def f(eq):\n    return eq * (L // factors)[:, None] % L", ["f"]),
            ("def f(eq):\n    eq *= (L // factors)[:, None]", ["f"]),
            ("def f(eq):\n    eq += L // factors", []),
            ("def f(eq):\n    return eq % (L // np.tile(factors, 3))", []),
            ("def f():\n    return np.einsum('xjl,yla->xyja', mats, units) - units[tq]", [])):
        assert _light_row_builders(ast.parse(source)) == flagged, source


def test_readme_quick_start_runs(capsys):
    """The first Python block of README.md runs as written and prints what
    its comments say, so the documented API cannot drift from the package."""
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["16", "4", "8", "True"]
    assert out[4] == "sequence: five-term endomorphism ring sequence"
    assert out[-1] == "(2,)"


def _budget_gaps(trees) -> tuple:
    """The `Budgets` fields that no tree reads, as an attribute or as the
    first argument of a `gate` call, and the first arguments of `gate`
    calls that name no field (None for one that is no constant)."""
    attrs, gated = set(), []
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "gate":
            first = node.args[0] if node.args else None
            gated.append(first.value if isinstance(first, ast.Constant) else None)
    names = {f.name for f in dataclasses.fields(Budgets)}
    return sorted(names - attrs - set(gated)), [f for f in gated if f not in names]


def test_every_budget_is_read_and_documented():
    """Each `Budgets` field is read by some module other than budgets.py,
    as an attribute or as the named field of a `budgets.gate` call, so
    none is a gate that nothing consults; every gate call names a field;
    and the bullet list of README's "Enumeration budgets" section names
    every field with its default and no other name."""
    defaults = {f.name: f.default for f in dataclasses.fields(Budgets)}
    assert _budget_gaps([ast.parse((PACKAGE / m).read_text(encoding="utf-8"))
                         for m in ALL_MODULES if m != "budgets.py"]) == ([], [])
    rest = "".join(f"b.{f}\n" for f in defaults if f != "search_candidates")
    for source, gaps in ((rest + "gate('search_candidates', n, t)", ([], [])),
                         (rest, (["search_candidates"], [])),
                         (rest + "gate('search_candidates', n, t)\ngate(f, n, t)", ([], [None])),
                         (rest + "gate('search_candidate', n, t)",
                          (["search_candidates"], ["search_candidate"]))):
        assert _budget_gaps([ast.parse(source)]) == gaps, source
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Enumeration budgets\n", 1)[1].split("\n## ", 1)[0]
    listed = {name: int(default)
              for name, default in re.findall(r"^- `(\w+)` \((\d+)\):", section, re.M)}
    assert listed == defaults


def test_table_constructors_keep_their_signatures():
    """`FiniteGroup` and `FiniteRing` take no parameter beyond their tables,
    generators, identity, labels and name, and `GroupHom`, `ActionTable` and
    `CrossedHom` none beyond their groups and values: the laws that a coset
    walk proves reach them only through the private `groups._on_walk`, and
    values that a construction proves only through `groups._proved`, so no
    caller can claim a law for a table it built by passing a flag."""
    assert str(inspect.signature(FiniteGroup)) == (
        "(table, generators: 'Optional[Sequence[int]]', "
        "labels: 'Optional[Sequence[str]]' = None, name: 'str' = '')")
    assert str(inspect.signature(FiniteRing)) == (
        "(add_table, mul_table, one: 'Optional[int]' = None, "
        "labels: 'Optional[Sequence[str]]' = None, name: 'str' = '')")
    assert str(inspect.signature(GroupHom)) == (
        "(source: 'FiniteGroup', target: 'FiniteGroup', values)")
    assert str(inspect.signature(ActionTable)) == (
        "(actor: 'FiniteGroup', module: 'FiniteGroup', table)")
    assert str(inspect.signature(CrossedHom)) == (
        "(source: 'FiniteGroup', module: 'FiniteGroup', action: 'ActionTable', values)")


def _sites(tree: ast.AST, hit) -> list:
    """The name of the function whose own body holds it, for each node that
    `hit` accepts, and "?" for each outside any function's own body."""
    sites = [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
             for node in _own_nodes(func) if hit(node)]
    return sorted(sites + ["?"] * (sum(map(hit, ast.walk(tree))) - len(sites)))


def _new_sites(tree: ast.AST) -> list:
    """Where an attribute `__new__` is read."""
    return _sites(tree, lambda node: isinstance(node, ast.Attribute) and node.attr == "__new__")


def test_objects_skip_their_checks_only_on_the_private_routes():
    """`cls.__new__` is called only by `groups._proved` and `groups._on_walk`,
    the two routes by which a construction supplies what it proves."""
    found = [(m, name) for m in ALL_MODULES
             for name in _new_sites(ast.parse((PACKAGE / m).read_text(encoding="utf-8")))]
    assert found == [("groups.py", "_on_walk"), ("groups.py", "_proved")]
    for source, flagged in (("def f(cls):\n    return cls.__new__(cls)", ["f"]),
                            ("x = object.__new__(object)", ["?"]),
                            ("def f():\n    return lambda c: c.__new__(c)", ["?"]),
                            ("def f(cls):\n    return cls(1)", [])):
        assert _new_sites(ast.parse(source)) == flagged, source


def _names_budget_exceeded(node) -> bool:
    return (getattr(node, "id", None) or getattr(node, "attr", None)) == "BudgetExceeded"


def _refusal_sites(tree: ast.AST) -> list:
    """Where a `BudgetExceeded` is built: called, or raised as the class."""
    return _sites(tree, lambda node: (isinstance(node, ast.Call) and _names_budget_exceeded(node.func))
                  or (isinstance(node, ast.Raise) and _names_budget_exceeded(node.exc)))


def test_budgets_refuse_only_in_the_gate():
    """`BudgetExceeded` is built only in `budgets.gate`, the one place that
    compares a count with its budget, and in `compute_h2`'s one re-raise
    when the gates of both its routes refuse."""
    found = [(m, name) for m in ALL_MODULES
             for name in _refusal_sites(ast.parse((PACKAGE / m).read_text(encoding="utf-8")))]
    assert found == [("budgets.py", "gate"), ("cohomology2.py", "compute_h2")]
    for source, flagged in (("def f(n):\n    raise BudgetExceeded(f'{n} > 1')", ["f"]),
                            ("def f():\n    return errors.BudgetExceeded('x')", ["f"]),
                            ("def f():\n    raise BudgetExceeded", ["f"]),
                            ("error = BudgetExceeded('x')", ["?"]),
                            ("def f():\n    return lambda: BudgetExceeded('x')", ["?"]),
                            ("try:\n    f()\nexcept BudgetExceeded as exc:\n    raise exc", []),
                            ("def f():\n    raise ValueError('x')", [])):
        assert _refusal_sites(ast.parse(source)) == flagged, source


def _restacked_values(tree: ast.AST) -> list:
    """Lines of each `np.stack`, `np.array` or `np.asarray` call whose first
    argument is a comprehension yielding `.values`, indexed or not: value
    tables taken out of objects one at a time and stacked again."""
    def yields_values(elt):
        while isinstance(elt, ast.Subscript):
            elt = elt.value
        return isinstance(elt, ast.Attribute) and elt.attr == "values"

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and getattr(node.func.value, "id", None) == "np"
            and node.func.attr in ("stack", "array", "asarray") and node.args
            and isinstance(node.args[0], (ast.ListComp, ast.GeneratorExp))
            and yields_values(node.args[0].elt)]


def test_value_tables_are_not_restacked():
    """No module stacks the `.values` of a list of objects: a searched table
    stays one [b, x] array from the search to the rings, and an object is
    built only when one member is asked for."""
    found = [f"{m}:{line}" for m in ALL_MODULES
             for line in _restacked_values(ast.parse((PACKAGE / m).read_text(encoding="utf-8")))]
    assert not found, f"value tables restacked at {', '.join(found)}"
    for source, flagged in (("t = np.stack([e.values for e in ring.elements])", [1]),
                            ("t = np.array([z.values for z in zs], dtype=np.int64)", [1]),
                            ("t = np.asarray(list(h.values for h in hs))", []),
                            ("t = np.asarray(h.values for h in hs)", [1]),
                            ("p = np.stack([psi.values[[1, 2]] for psi in cs])", [1]),
                            ("t = [h.values for h in hs]", []),
                            ("t = np.asarray(perms)[hom.values]", []),
                            ("t = np.stack([index.find(row[ts]) for row in ts])", [])):
        assert _restacked_values(ast.parse(source)) == flagged, source
