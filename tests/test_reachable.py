"""Reachability guard: every top-level function and class of the package is run by the program.

The roots are the CLI's ``main``, the names used by module-level statements
(constants, tables, cached LAPACK handles; imports do not count, so the
package's ``__init__`` exports keep nothing alive), and every name the
benchmark under ``perfbench/`` mentions, as an identifier, an attribute or a
dotted string such as a ``WRAPPED`` entry.  From there a definition reaches
every name its body mentions.  Names are matched across modules by their
bare name, so a definition stays reached while any namesake is.

Code that only tests call belongs in ``tests/`` (oracles) or nowhere.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "plateau_hyp"
BENCH = ROOT / "perfbench"

# Kept without a caller in the program, each for a stated reason.
ALLOWED = {
    # the upper caps are the cap side of the planned two-sided attainment
    # check (ROADMAP item 5); until it lands only tests build them
    "UpperCap": "ROADMAP item 5",
    "upper_cap_barrier": "ROADMAP item 5",
}


def _mentions(node) -> set:
    """Identifiers and attribute names used anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _definitions() -> tuple:
    """(name -> list of definition nodes, names used by module-level statements)."""
    defs, roots = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _mentions(node)
    return defs, roots


def _bench_names() -> set:
    out = set()
    for path in sorted(BENCH.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        out |= _mentions(tree)
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.update(sub.value.split("."))
    return out


def unreachable() -> list:
    defs, roots = _definitions()
    seen, todo = set(), ["main", *roots, *_bench_names()]
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in defs[name]:
            todo.extend(_mentions(node))
    return sorted(set(defs) - seen)


def test_every_package_definition_is_reachable_from_the_program():
    dead = [name for name in unreachable() if name not in ALLOWED]
    assert not dead, f"{len(dead)} definitions nothing in the program reaches: {', '.join(dead)}"


def test_allowlist_names_only_unreached_definitions():
    stale = sorted(set(ALLOWED) - set(unreachable()))
    assert not stale, f"allowed as unreached but reached or gone: {', '.join(stale)}"
