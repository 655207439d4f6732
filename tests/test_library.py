"""The library holds only what its commands reach."""

import ast
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


def test_public_names_have_a_src_caller():
    # every public module-level name of the package is read somewhere in
    # src/ outside its own definition, as a name or an attribute in code (a
    # docstring or an import does not count); names that only tests call
    # belong in the tests' oracle files
    defined = {}
    read = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = _defines(stmt)
            defined.update((name, path.stem) for name in names
                           if not name.startswith("_"))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    ident = node.id
                elif isinstance(node, ast.Attribute):
                    ident = node.attr
                else:
                    continue
                if ident not in names:
                    read.add(ident)
    unread = sorted(f"{module}.{name}" for name, module in defined.items()
                    if name not in read | NO_CALLER_YET)
    assert unread == []
