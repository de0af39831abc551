"""Each shared formula of the key-length path is written in exactly one
function body of the package: the scalar path and the numpy grid kernel
call it rather than spelling it out again.  Likewise the honest-device
Monte Carlo has one sampler, and the glued min-tradeoff function one
scalar text, which the per-round and block protocols both call.  The de
Finetti tables go through one joint-type map, and tau's denominators
through one multinomial.  Every public function and class has a caller
outside the unit tests or, for a short named list, a role in the README;
every public method has a caller, and every default is set somewhere
outside the unit tests.  The tests' key-length oracle reads no private
name of the package."""

import ast
import re
import copy
from pathlib import Path

import pytest

import di_toolkit

# one marker per formula: the max-entropy term, the leakage sum, the
# leakage root of the eps_t terms, the Hoeffding bound, the s_max =
# ceil(1/gamma) rule, the honest-device sampler's test-flag draw (shared
# with the round-count statistic) and its per-round uniform draws, the
# secrecy bound's slope (taken with the bound from one root), the
# smoothing root of the max-entropy term and the EAT penalty, the
# multinomial of tau's denominators, the eps_t candidate ladder, the error
# budget's soundness split and completeness slack, the block output
# dimension's closed form, the glued function's tangent at its cut, the
# threshold bound's exponent (the bound and the CLI's log10_bound), the
# EAT rate f - K (log2 d_O + f') (the scalar path and the grid kernel), the
# tail rule: the round count has a tail iff a block can hold more than one
# round (the test mass, the tail, the key length and the grid kernel), a
# game's complete-support check (the non-signalling program, its dual and
# the outright check), the conditionals Q(x|y), Q(y|x) (the signalling
# matrix on floats, the signalling test on Fractions) and the secrecy
# bound's radicand (the flat-extended bound and its slope on the regime)
MARKERS = ["LOG2_7", "LOG2_2SQRT2_PLUS_1", "xp.log2(8.0 / est",
           "exp(-2.0 *", "ceil(1.0 / gamma",
           "rng.random((m, block.s_max))", "rng.random(n)",
           "log2(u / (1.0 - u))", "1.0 - 2.0 * xp.log2(",
           "math.comb(", "10.0 ** (-k)", "caps.soundness - 2.0 * caps.eps_ec",
           "caps.completeness - caps.eps_ec", "6.0 ** (-s_max)",
           "at_cut + slope * (", "(30.0 * d) ** 2", "k_pen * (",
           "(s_max > 1) & (gamma < 1)", "game must have complete support",
           "np.where(qy > 0, qy, 1)",
           "16.0 * omega * (omega - 1.0) + 3.0"]


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
    """The de Finetti tables and the random permutation-invariant tables go
    through boxes._type_classes; an n! sweep over round permutations would
    be a second text of the same classes (tests/perm_oracle.py keeps one as
    the reference)."""
    sweep = "itertools.permutations("
    holders = [name for name, code in function_bodies() if sweep in code]
    assert holders == []


def test_no_raw_stream_skip():
    """The abort estimator draws a prefix of the transcript's stream; a
    skip over raw generator outputs would lean on how numpy packs its
    bounded-integer draws."""
    holders = [name for name, code in function_bodies()
               if "random_raw" in code]
    assert holders == []


REPO = Path(__file__).resolve().parents[1]
PACKAGE = Path(di_toolkit.__file__).parent


def private_package_reads(tree):
    """The private names that a module's syntax tree imports from the
    package, and the private attributes it reads off a package module
    (bound by ``import di_toolkit.m`` or ``from di_toolkit import m``)."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.split(".")[0] == "di_toolkit")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "di_toolkit"):
            found += [a.name for a in node.names if a.name.startswith("_")]
            if node.module == "di_toolkit":
                modules.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and ast.unparse(node.value) in modules):
            found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_key_length_oracle_reads_no_private_name():
    """tests/key_length_oracle.py restates the key length's terms on its
    own: it imports no private name of the package and reads no private
    attribute of a package module, so a fault in a private body cannot
    pass through it into the tests' expected values."""
    tree = ast.parse((REPO / "tests" / "key_length_oracle.py").read_text())
    assert private_package_reads(tree) == []
    caught = ast.parse("import di_toolkit.eat\n"
                       "from di_toolkit import eat, keyrates as kr\n"
                       "from di_toolkit.keyrates import _pa_term, BLOCK\n"
                       "kr._log_correction(1e-6)\n"
                       "eat._penalty_scale\n"
                       "di_toolkit.eat._max_entropy\n"
                       "BLOCK._x, kr.BLOCK\n")
    assert sorted(private_package_reads(caught)) == [
        "_pa_term", "di_toolkit.eat._max_entropy", "eat._penalty_scale",
        "kr._log_correction"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any((d.func if isinstance(d, ast.Call) else d).id == "dataclass"
               for d in node.decorator_list)


def _is_property(node) -> bool:
    """A property or a functools.cached_property."""
    return any(getattr(d, "id", getattr(d, "attr", None))
               in ("property", "cached_property")
               for d in node.decorator_list)


def module_public_names(stem, tree):
    """(label, name, kind) of every public module-level function and class
    (kind "module") and every public method of a public class (kind
    "property" or "method") of one module's syntax tree."""
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        yield f"{stem}:{node.name}", node.name, "module"
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield (f"{stem}:{node.name}.{item.name}", item.name,
                           "property" if _is_property(item) else "method")


def public_names():
    """module_public_names over every module of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield from module_public_names(path.stem, ast.parse(path.read_text()))


def _caller_trees():
    """The syntax trees of the code outside the unit tests: the package,
    the scripts, the benchmark and the acceptance tests."""
    paths = [*PACKAGE.glob("*.py"), *(REPO / "scripts").glob("*.py"),
             *(REPO / "perfbench").glob("*.py"),
             REPO / "tests" / "test_acceptance.py"]
    return [ast.parse(path.read_text()) for path in sorted(paths)]


def referenced_names():
    """(used, read): the names that the code outside the unit tests calls,
    loads as a bare name or imports, and the attribute names it reads
    without calling them.  Strings do not count, so perfbench/tracing.py's
    tables of traced function names refer to nothing."""
    used, read, called = set(), set(), set()
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    called.add(id(func))
                    used.add(func.attr)
                elif isinstance(func, ast.Name):
                    used.add(func.id)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in called)
    return used, read


def readme_layout_names():
    """The words of the README's Layout block."""
    text = (REPO / "README.md").read_text()
    block = re.search(r"^## Layout\n\n```\n(.*?)^```", text,
                      re.DOTALL | re.MULTILINE)
    return set(re.findall(r"\w+", block.group(1)))


def orphans(names, used, read, readme):
    """The labels of ``names`` (label, name, kind) without a role: a
    module-level name needs a caller or a word in the README's Layout
    block, a method a caller, and a property a caller or an attribute
    read.  A method's name in the README is no role: its words name the
    paper's objects, and a method called "dual" would pass on "dual
    kappa"."""
    roles = {"module": used | readme, "method": used, "property": used | read}
    return [label for label, name, kind in names if name not in roles[kind]]


def test_public_names_have_a_role():
    """A public function or class either has a caller outside the unit
    tests or is a paper object the README's Layout block names, and a
    public method has a caller; anything else is dead surface.  A caller
    calls the name, loads it as a bare name or imports it; reading a
    same-named field or attribute is no use of a function, but it is of a
    property."""
    used, read = referenced_names()
    assert orphans(public_names(), used, read, readme_layout_names()) == []


# the public names whose one role is a word in the README's Layout block:
# the n-round box, whose table layout the de Finetti functions take, and
# the checked cut interval, whose private body the key length and the grid
# kernel call
README_ONLY = {"boxes:MultiRoundBox", "eat:cut_interval"}


def test_readme_only_names_are_listed():
    """A public function or class that nothing outside the unit tests
    calls passes test_public_names_have_a_role on the README alone; each
    such name is listed in README_ONLY, so a new one fails here until it is
    listed or given a caller."""
    used, _ = referenced_names()
    assert {label for label, name, kind in public_names()
            if kind == "module" and name not in used} == README_ONLY


def test_role_rules():
    """Only module-level names take a role from the README, and a
    cached_property counts as a property."""
    tree = ast.parse(
        "import functools\n"
        "def paper_object(): pass\n"
        "class Solution:\n"
        "    def dual(self): pass\n"
        "    @functools.cached_property\n"
        "    def value(self): pass\n"
        "    @cached_property\n"
        "    def basis(self): pass\n")
    names = list(module_public_names("m", tree))
    assert [kind for _, _, kind in names] == ["module", "module", "method",
                                              "property", "property"]
    readme = {"paper_object", "Solution", "dual", "value", "basis"}
    assert orphans(names, set(), {"value"}, readme) == ["m:Solution.dual",
                                                        "m:Solution.basis"]
    assert orphans(names, {"dual"}, {"value", "basis"}, set()) == [
        "m:paper_object", "m:Solution"]


def defaulted_parameters():
    """(label, callee, position, name, is_field) of every defaulted
    parameter of a package function or method and every defaulted dataclass
    field; a position is that of the argument in a call (a method's self is
    bound), None for a keyword-only parameter."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(item) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body
                   if isinstance(item, ast.FunctionDef)
                   and not any(isinstance(d, ast.Name)
                               and d.id == "staticmethod"
                               for d in item.decorator_list)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                args = node.args.posonlyargs + node.args.args
                bound = id(node) in methods
                for k, arg in enumerate(args[len(args)
                                             - len(node.args.defaults):],
                                        len(args) - len(node.args.defaults)):
                    yield (f"{path.stem}:{node.name}({arg.arg})", node.name,
                           k - bound, arg.arg, False)
                for arg, default in zip(node.args.kwonlyargs,
                                        node.args.kw_defaults):
                    if default is not None:
                        yield (f"{path.stem}:{node.name}({arg.arg})",
                               node.name, None, arg.arg, False)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = [item for item in node.body
                          if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)]
                for k, item in enumerate(fields):
                    if item.value is not None:
                        yield (f"{path.stem}:{node.name}.{item.target.id}",
                               node.name, k, item.target.id, True)


def _callee(call: ast.Call):
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def set_arguments():
    """(callee, position-or-name) of every argument that the code outside
    the unit tests passes, the callee named as called; a starred argument
    covers every position from its own on.  Keywords passed to
    dataclasses.replace are set on the replaced object (callee None).  A
    function passing its own parameter on to itself sets nothing."""
    out = set()
    for tree in _caller_trees():
        recursive = {id(node) for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef)
                     for node in ast.walk(fn)
                     if isinstance(node, ast.Call) and _callee(node) == fn.name}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in recursive:
                continue
            callee = _callee(node)
            if callee == "replace":
                callee = None
            for k, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    out.update((callee, j) for j in range(k, 64))
                    break
                out.add((callee, k))
            out.update((callee, kw.arg) for kw in node.keywords if kw.arg)
    return out


def test_every_default_has_a_setter():
    """A parameter or dataclass field with a default is set somewhere
    outside the unit tests, by position or by keyword (a dataclass field
    also through dataclasses.replace); one that only unit tests set is a
    test-only option and belongs in the code as a constant."""
    given = set_arguments()
    unset = [label for label, callee, position, name, is_field
             in defaulted_parameters()
             if not ({(callee, position), (callee, name)} & given
                     or is_field and (None, name) in given)]
    assert unset == []
