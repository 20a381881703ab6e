"""The package's split by concern, read from its source with ast.

- Only aoasim.kernels names a NumPy ufunc whose bits change with the SIMD
  kernel NumPy dispatches to on the CPU at hand (the probe in ROADMAP.md,
  "Bits across CPU dispatch"), so a portable replacement has one place to go.
- Only aoasim.inputs defines an input rule, a function named _check_*.
- Neither imports another aoasim module, so there is no import cycle.
- No module reduces through dot, matmul, vecdot, inner, tensordot, einsum or
  the @ operator: those sum through BLAS or einsum's own kernels, whose order
  is not NumPy's pairwise add, which the spreads' moments rely on.
"""

import ast
from pathlib import Path

import aoasim

DISPATCHED = {"tan", "arctan", "arctan2", "exp", "exp2", "expm1", "log", "log2", "log1p",
              "power", "cbrt", "tanh", "log10", "arcsin", "arccos", "sinh", "cosh", "arcsinh",
              "arccosh", "arctanh"}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(aoasim.__file__).parent.glob("*.py"))}


def _dispatched(tree):
    """The dispatched ufuncs a module names, called or not: numpy.<name> under
    any alias of numpy, or a name imported from numpy."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names if alias.name == "numpy"}
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in DISPATCHED
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.update(alias.name for alias in node.names if alias.name in DISPATCHED)
    return found


BLAS_REDUCTIONS = {"dot", "matmul", "vecdot", "inner", "tensordot", "einsum"}


def _blas_reductions(tree):
    """The calls of a module to a function named in BLAS_REDUCTIONS, as a name or
    an attribute of anything, and its uses of the @ operator."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_REDUCTIONS:
                found.add(ast.unparse(func))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add("@")
    return found


def _rules(tree):
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")}


def test_only_kernels_calls_a_dispatched_ufunc():
    modules = _modules()
    # the kernels' own calls are found, so an empty result elsewhere means none
    assert _dispatched(modules["kernels"]) >= {"np.tan", "np.arctan", "np.exp", "np.log",
                                               "np.log10"}
    assert {name: found for name, tree in modules.items() if name != "kernels"
            if (found := _dispatched(tree))} == {}


def test_only_inputs_defines_an_input_rule():
    modules = _modules()
    assert {"_check_count", "_check_hpbw", "_check_samples"} <= _rules(modules["inputs"])
    assert {name: found for name, tree in modules.items() if name != "inputs"
            if (found := _rules(tree))} == {}


def test_inputs_and_kernels_import_no_other_aoasim_module():
    for name, tree in _modules().items():
        if name in ("inputs", "kernels"):
            imported = [ast.unparse(node) for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) and (node.level or "aoasim" in node.module)
                        or isinstance(node, ast.Import)
                        and any("aoasim" in alias.name for alias in node.names)]
            assert imported == [], name


def test_no_module_reduces_through_blas_or_einsum():
    modules = _modules()
    assert {name: found for name, tree in modules.items()
            if (found := _blas_reductions(tree))} == {}
    # the guard sees a moment taken by einsum, a dot product and the operator
    source = ast.unparse(modules["estimation"])
    moment = "np.sum(product, axis=-1)"
    assert source.count(moment) == 2
    for edit, seen in (("np.einsum('...i->...', product)", "np.einsum"),
                       ("product.dot(np.ones(product.shape[-1]))", "product.dot"),
                       ("product @ np.ones(product.shape[-1])", "@")):
        assert _blas_reductions(ast.parse(source.replace(moment, edit, 1))) == {seen}
