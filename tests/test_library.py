"""The library holds only what its commands reach."""

import ast
from collections import Counter
from pathlib import Path

import surgeryforge

SRC = Path(surgeryforge.__file__).parent

# public names kept for a command still to come, each with its reason
NO_CALLER_YET = {
    # the case table of the bound-free pentangle certificate (ROADMAP item 7)
    "case_holds",
    # the slope-translation cross-check that acceptance criterion 10 runs,
    # until the X1 label is repaired and the families tier is proved as
    # polynomial identities (ROADMAP items 2 and 5)
    "prop15_consistency",
}


def _defines(stmt):
    """The names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {node.id for target in stmt.targets
                for node in ast.walk(target) if isinstance(node, ast.Name)}
    return set()


def _reads(tree, names=frozenset()):
    """The identifiers a syntax tree reads as a name or an attribute in
    code (a docstring or an import does not count), but those in names."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))} - set(names)


def test_public_names_have_a_src_caller():
    # every public module-level name of the package is read somewhere in
    # src/ outside its own definition; names that only tests call belong in
    # the tests' oracle files
    defined = {}
    read = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _defines(stmt)
            defined.update((name, path.stem) for name in names
                           if not name.startswith("_"))
            read |= _reads(stmt, names)
    unread = sorted(f"{module}.{name}" for name, module in defined.items()
                    if name not in read | NO_CALLER_YET)
    assert unread == []


def test_public_oracle_names_have_a_reader():
    # every public module-level name of a tests/*_oracle.py module is read
    # by a test module, or in its own module outside its own definition, so
    # no retired reference lingers
    tests = Path(__file__).parent
    tested = set().union(*(_reads(ast.parse(path.read_text()))
                           for path in tests.glob("test_*.py")))
    unread = []
    for path in sorted(tests.glob("*_oracle.py")):
        body = ast.parse(path.read_text()).body
        readers = Counter(name for stmt in body for name in _reads(stmt))
        for stmt in body:
            own = _reads(stmt)
            unread += [f"{path.stem}.{name}" for name in sorted(
                _defines(stmt)) if not name.startswith("_")
                and name not in tested and readers[name] == (name in own)]
    assert unread == []
