"""Default guards: every defaulted parameter of a package function is set by some call and left by another.

A parameter no call ever passes is a knob that does nothing: its default is
the only value the code runs with, so it belongs in the body or in a module
constant.  A parameter every call passes has a default no call relies on,
so it is a required parameter.  Calls are matched by function name across
the package, the tests and the benchmark; ``functools.partial(fn, ...)``
counts as a call of ``fn``.
"""

import ast
import pathlib

from plateau_hyp.perron import DATUM_KINDS

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "plateau_hyp"
CALLER_DIRS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _trees(dirs) -> list:
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for d in dirs for path in sorted(d.rglob("*.py"))]


def _callee(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def call_sites(trees) -> dict:
    """Function name -> list of (positional count, keyword names, open) per call.

    ``open`` marks a call that unpacks ``*args`` or ``**kwargs`` and so may
    set any parameter.
    """
    sites = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, args = _callee(node.func), node.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            if name is None:
                continue
            keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
            unpacks = any(isinstance(a, ast.Starred) for a in args) \
                or any(kw.arg is None for kw in node.keywords)
            sites.setdefault(name, []).append((len(args), keywords, unpacks))
    return sites


def defaulted_parameters(trees) -> list:
    """(where, function name, parameter, positional index or None) per defaulted parameter.

    Methods count positions after ``self``/``cls``, as their calls pass them.
    """
    out = []
    for path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{path.name}:{node.lineno} {node.name}"
            positional = node.args.posonlyargs + node.args.args
            skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first_default = len(positional) - len(node.args.defaults)
            for i, arg in enumerate(positional):
                if i >= first_default:
                    out.append((where, node.name, arg.arg, i - skip))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    out.append((where, node.name, arg.arg, None))
    return out


def test_every_defaulted_parameter_is_set_by_some_caller():
    sites = call_sites(_trees(CALLER_DIRS))
    unset = []
    for where, name, param, index in defaulted_parameters(_trees((PACKAGE,))):
        calls = sites.get(name, [])
        if not any(unpacks or param in keywords or (index is not None and count > index)
                   for count, keywords, unpacks in calls):
            unset.append(f"{where}({param})")
    assert not unset, f"{len(unset)} defaulted parameters no caller sets: {', '.join(unset)}"


def test_every_defaulted_parameter_is_left_to_its_default_by_some_caller():
    # the datum constructors' defaults are the CLI's boundary-config defaults
    exempt = {constructor.__name__ for constructor in DATUM_KINDS.values()}
    sites = call_sites(_trees(CALLER_DIRS))
    always = []
    for where, name, param, index in defaulted_parameters(_trees((PACKAGE,))):
        calls = sites.get(name, [])
        if name in exempt or not calls:
            continue
        if all(not unpacks and (param in keywords or (index is not None and count > index))
               for count, keywords, unpacks in calls):
            always.append(f"{where}({param})")
    assert not always, f"{len(always)} defaulted parameters every call passes: {', '.join(always)}"
