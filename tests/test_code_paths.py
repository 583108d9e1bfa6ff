"""Structural ratchets over the modules of src/ghznet, read with `ast`.

Each model rule is stated in one place: the model raises it, and config
and the command line only name the key or flag that set the rejected
value.  Production code is what `ghznet` and the package exports run: a
def that neither reaches, or a defaulted parameter that no call sets, is
either listed below with its reason or a failure.  Both lists only
shrink, and every removal shows in the diff.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ghznet"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}

# rule -> (pattern of its message, the one module that raises it).  The
# epsilon floor is two checks on purpose: FiniteSizeParams rejects an
# epsilon whose eps_c * eps_pa**2 underflows (below about 3.4e-108), and
# config.MIN_EPSILON keeps every bipartite split epsilon / (N-1) above it.
RULES = {
    "mQSS switches bases actively": (r"^mQSS requires active basis switching", "network"),
    "p_key lies in [0, 1]": (r"^(protocol\.)?p_key must lie in \[0, 1\]", "network"),
    "memories need p_a <= p_b": (r"^memory-assisted .*(d_A_km >= d_B_km|p_a <= p_b)", "network"),
    "memories need p_a > 0": (r"^memory-assisted .*p_a > 0", "network"),
    "mc.samples >= 1": (r"^(mc[._])?samples must be >= 1", "memory"),
    "seeds >= 0": (r"must be >= 0, got", "config"),
    "the oracle's N": (r"^(oracle supports|need max-n)", "oracle"),
    "the threshold bracket": (r"^(--bracket needs|need (a finite )?bracket)", "analysis"),
    "N >= 2 parties": (r"^need at least 2 parties", "core"),
    "the task is QSS or CKA": (r"^task must be", "analysis"),
}


def _template(node: ast.AST) -> str:
    if isinstance(node, ast.Constant):
        return node.value
    return "".join(
        part.value if isinstance(part, ast.Constant) else "{" + ast.unparse(part.value) + "}"
        for part in node.values
    )


def _messages(tree: ast.Module):
    """Every text a module can raise: its string literals and f-strings
    other than docstrings, and the message check_probability raises for a
    literal name."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None:
            skipped.add(id(node.body[0].value))
        if isinstance(node, ast.JoinedStr):
            skipped.update(id(part) for part in node.values)
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.JoinedStr) or (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            yield _template(node)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "check_probability"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Constant)
        ):
            yield f"{node.args[1].value} must lie in [0, 1], got {{value!r}}"


@pytest.mark.parametrize("rule", RULES)
def test_each_model_rule_is_raised_in_one_place(rule):
    pattern, owner = RULES[rule]
    sites = [
        (module, text) for module, tree in TREES.items() for text in _messages(tree) if re.search(pattern, text)
    ]
    assert [module for module, _ in sites] == [owner], sites


# defs that neither `ghznet` nor the package exports run
UNREACHED = {
    "rates.hbb_rate": "the X/Y-basis scheme the paper improves on; tests and the benchmark's tracer call it",
    "rates.cka_equals_qss_check": "the asymptotic CKA = QSS identity; tests and the tracer call it",
    "network.expected_counts": "expected detections; tests and the tracer call it",
    "network.simulate_sifting": "the sifting Monte Carlo; criterion 6, tests and the tracer call it",
    "noise.memory_qbers_from_exponents": "a shortcut of the analytic chain for tests and the tracer",
    "oracle.validate_density": "a density-matrix sanity check for the oracle tests",
}

# defs that only the package exports reach
EXPORT_ONLY = {
    "analysis.best_cka_fraction": "exported; the benchmark's workloads call it through the package",
}

# (def, parameter) pairs with a default that no call in src/ghznet sets
UNSET_PARAMETERS = {
    ("analysis.find_threshold", "xtol"): "its default is the one threshold policy; tests vary it",
    ("oracle.oracle_grid", "f_grid"): "the grid oracle-check runs; tests pass smaller grids",
    ("oracle.oracle_grid", "exponent_values"): "the grid oracle-check runs; tests pass smaller grids",
    ("oracle.oracle_grid", "tol"): "the tolerance oracle-check prints; tests tighten it",
    ("oracle.oracle_grid", "prefactor_fn"): "a mutation test injects a perturbed formula",
    ("cli.main", "argv"): "the console script passes none, so argparse reads sys.argv",
    ("analysis.best_cka_fraction", "memories"): "goes with its export-only def; tests set it",
    ("rates.hbb_rate", "yield_per_use"): "goes with its unreached def",
    ("rates.cka_equals_qss_check", "tol"): "goes with its unreached def",
    ("oracle.validate_density", "tol"): "goes with its unreached def",
}


def _symbols() -> dict[str, ast.AST]:
    """module.name -> the node of each top-level def, class and constant."""
    symbols = {}
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                symbols[f"{module}.{node.name}"] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name):
                        symbols[f"{module}.{target.id}"] = node
    return symbols


SYMBOLS = _symbols()


def _namespace(module: str) -> dict[str, str]:
    """Each name a module binds -> the module.name it stands for; a bound
    module stands for itself.  Imports inside functions count too."""
    names = {key.split(".", 1)[1]: key for key in SYMBOLS if key.split(".", 1)[0] == module}
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                target = alias.name if node.module is None else f"{node.module}.{alias.name}"
                names[alias.asname or alias.name] = target
    return names


NAMESPACES = {module: _namespace(module) for module in TREES}


def _resolve(module: str, node: ast.AST) -> str | None:
    """The module.name a Name or a module attribute refers to, followed
    through re-exports."""
    if isinstance(node, ast.Name):
        target = NAMESPACES[module].get(node.id)
    elif isinstance(node, ast.Attribute):
        base = _resolve(module, node.value)
        target = f"{base}.{node.attr}" if base in TREES else None
    else:
        return None
    while target is not None and target not in SYMBOLS and target not in TREES:
        owner, _, name = target.partition(".")
        if owner not in NAMESPACES or NAMESPACES[owner].get(name, target) == target:
            return None
        target = NAMESPACES[owner][name]
    return target


def _references(key: str) -> set[str]:
    module = key.split(".", 1)[0]
    found = {_resolve(module, node) for node in ast.walk(SYMBOLS[key])}
    return {ref for ref in found if ref in SYMBOLS}


def _reach(roots: set[str]) -> set[str]:
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(_references(key) - seen)
    return seen


def _cli_roots() -> set[str]:
    import argparse

    from ghznet.cli import build_parser

    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dispatched = {
        f"{fn.__module__.removeprefix('ghznet.')}.{fn.__name__}"
        for parser in subparsers.choices.values()
        for fn in (parser.get_default("func"), parser.get_default("build"))
        if fn is not None
    }
    assert dispatched <= set(SYMBOLS)
    return {"cli.main"} | dispatched


def _export_roots() -> set[str]:
    exports = {_resolve("__init__", ast.Name(name)) for name in NAMESPACES["__init__"]}
    return exports & set(SYMBOLS)


def test_every_def_is_run_by_ghznet_or_the_exports():
    cli, exports = _reach(_cli_roots()), _reach(_export_roots())
    defs = {key for key, node in SYMBOLS.items() if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defs -= {key for key in defs if key.startswith(("__init__.", "__main__."))}
    assert sorted(defs - cli - exports) == sorted(UNREACHED)
    assert sorted(defs & exports - cli) == sorted(EXPORT_ONLY)


def _set_parameters() -> set[tuple[str, str]]:
    """(def, parameter) pairs that some call in src/ghznet sets."""
    found = set()
    for module, tree in TREES.items():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            key = _resolve(module, call.func)
            node = SYMBOLS.get(key)
            if not isinstance(node, ast.FunctionDef):
                continue
            params = [arg.arg for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
            positional = len(call.args)
            if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
                positional = len(params)
            found |= {(key, name) for name in params[:positional]}
            found |= {(key, kw.arg) for kw in call.keywords}
    return found


def test_every_defaulted_parameter_is_set_by_a_call():
    defaulted = set()
    for key, node in SYMBOLS.items():
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted |= {(key, arg.arg) for arg in positional[len(positional) - len(args.defaults):]}
            defaulted |= {
                (key, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
            }
    assert sorted(defaulted - _set_parameters()) == sorted(UNSET_PARAMETERS)
