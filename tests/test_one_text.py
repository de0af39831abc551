"""Each shared formula of the key-length path is written in exactly one
function body of the package: the scalar path and the numpy grid kernel
call it rather than spelling it out again.  Likewise the honest-device
Monte Carlo has one sampler, and the glued min-tradeoff function one
scalar text, which the per-round and block protocols both call.  Round
permutations of n-round tables go through one joint-type map, and the
de Finetti bounds through one multinomial.  Every public function and
class has a caller outside the unit tests or a role in the README."""

import ast
import re
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


REPO = Path(__file__).resolve().parents[1]
PACKAGE = Path(di_toolkit.__file__).parent


def public_names():
    """module:name of every public module-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def referenced_names():
    """Every name the package, the scripts, the benchmark and the
    acceptance tests refer to in code: names, attributes and imports.
    Strings do not count, so perfbench/tracing.py's tables of traced
    function names refer to nothing."""
    paths = [*PACKAGE.glob("*.py"), *(REPO / "scripts").glob("*.py"),
             *(REPO / "perfbench").glob("*.py"),
             REPO / "tests" / "test_acceptance.py"]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def readme_layout_names():
    """The words of the README's Layout block."""
    text = (REPO / "README.md").read_text()
    block = re.search(r"^## Layout\n\n```\n(.*?)^```", text,
                      re.DOTALL | re.MULTILINE)
    return set(re.findall(r"\w+", block.group(1)))


def test_public_names_have_a_role():
    """A public function or class either has a caller outside the unit
    tests or is a paper object the README's Layout block names; anything
    else is dead surface."""
    known = referenced_names() | readme_layout_names()
    orphans = [f"{module}:{name}" for module, name in public_names()
               if name not in known]
    assert orphans == []
