"""The package's import chain, model_core <- designs <- simulator <- cli, read
from the sources with ``ast``."""

import ast
from pathlib import Path

import multilevel_design

PACKAGE = Path(multilevel_design.__file__).parent
#: each layer and the package modules it may import
ALLOWED = {
    "model_core": set(),
    "designs": {"model_core"},
    "simulator": {"model_core", "designs"},
}
#: the decoders of stream layout v3, each defined in simulator alone
DECODERS = {
    "draw_assignment",
    "draw_randomization",
    "draw_contamination",
    "_school_keys",
    "_ranks",
    "_assignment_uniforms",
    "_picks",
    "_slot_table",
    "_sign_uniforms",
    "_randomization_signs",
    "_contamination_flags",
    "_stream_sizes",
    "_normals",
}


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def package_imports(module: str) -> list[tuple[str, list[str]]]:
    """(package module, imported names) of every import of a package module
    in ``module``, at any depth; names is empty for a plain ``import``."""
    found = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.level and node.module:
                found.append((node.module, names))
            elif node.level:  # from . import designs
                found += [(name, []) for name in names]
            elif (node.module or "").startswith("multilevel_design."):
                found.append((node.module.split(".")[1], names))
            elif node.module == "multilevel_design":
                found += [(name, []) for name in names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("multilevel_design"):
                    found.append((alias.name.partition(".")[2] or "__init__", []))
    return found


def test_package_has_five_modules():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert modules == ["__init__", "cli", "designs", "model_core", "simulator"]


def test_each_layer_imports_only_the_layers_below():
    for module, allowed in ALLOWED.items():
        imported = {target for target, _ in package_imports(module)}
        assert imported <= allowed, f"{module} imports {sorted(imported - allowed)}"


def test_simulator_imports_no_private_name_from_designs():
    private = [
        name
        for target, names in package_imports("simulator")
        if target == "designs"
        for name in names
        if name.startswith("_")
    ]
    assert private == []


def test_only_simulator_defines_a_stream_decoder():
    for module in ("model_core", "designs", "cli", "simulator"):
        defined = {
            node.name for node in ast.walk(_tree(module)) if isinstance(node, ast.FunctionDef)
        }
        if module == "simulator":
            assert DECODERS <= defined
        else:
            assert not defined & DECODERS, f"{module} defines {sorted(defined & DECODERS)}"
