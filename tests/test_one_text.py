"""Each shared formula of the key-length path is written in exactly one
function body of the package: the scalar path and the numpy grid kernel
call it rather than spelling it out again.  Likewise the honest-device
Monte Carlo has one sampler, and the glued min-tradeoff function one
scalar text, which the per-round and block protocols both call.  Round
permutations of n-round tables go through one joint-type map, and the
de Finetti bounds through one multinomial."""

import ast
import copy
from pathlib import Path

import pytest

import di_toolkit

# one marker per formula: the max-entropy term, the leakage sum, the
# Hoeffding bound, the s_max = ceil(1/gamma) rule, the honest-device
# sampler's uniform draws, the glued function's slope at its cut and the
# smoothing root of the max-entropy term and the EAT penalty, the
# multinomial of the de Finetti bounds and the eps_t candidate ladder
MARKERS = ["LOG2_7", "LOG2_2SQRT2_PLUS_1", "exp(-2.0 *", "ceil(1.0 / gamma",
           "rng.random(", "secrecy_bound_slope(", "1.0 - 2.0 * xp.log2(",
           "math.comb(", "10.0 ** (-k)"]


class _DropNested(ast.NodeTransformer):
    def visit_FunctionDef(self, node):
        return None

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef


def function_bodies():
    """(module:function, code) for every function in the package, the code
    without its docstring and without the functions nested in it."""
    for path in sorted(Path(di_toolkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body[1:] if ast.get_docstring(node) else node.body
            kept = [_DropNested().visit(copy.deepcopy(s)) for s in body]
            yield (f"{path.stem}:{node.name}",
                   "\n".join(ast.unparse(s) for s in kept if s is not None))


@pytest.mark.parametrize("marker", MARKERS)
def test_marker_in_one_function_body(marker):
    holders = [name for name, code in function_bodies() if marker in code]
    assert len(holders) == 1, holders


def test_no_golden_section_search():
    """The optimizer's refine stages are kernel zooms; a golden-section
    search would be a second search path beside them."""
    golden = "(math.sqrt(5.0) - 1.0) / 2.0"
    holders = [name for name, code in function_bodies() if golden in code]
    assert holders == []


def test_no_round_permutation_sweep():
    """Symmetrizing, invariance checks and the de Finetti tables go through
    boxes._type_classes; an n! sweep over round permutations would be a
    second text of the same classes (tests/perm_oracle.py keeps one as the
    reference)."""
    sweep = "itertools.permutations("
    holders = [name for name, code in function_bodies() if sweep in code]
    assert holders == []
