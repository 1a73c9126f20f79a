"""Every public name in the library has a caller outside the tests.

A public function, class, method or module-level constant of
src/primebounds must be referenced from src/ or bench/ (the command line
is src/primebounds/cli.py; there is no scripts/ folder).  Test files
there do not count, nor do __all__ (its entries are strings) and
type annotations; type aliases are not constants.  References are matched
by name: a load of the name, an attribute of that name, or an import of
it.  A method counts as called only through an attribute or an import, so
a local variable that shares its name is no caller.  Names that only tests
reach today are pinned in TEST_ONLY, and their bodies are no callers
either: a name that only a pinned definition uses is test-only too.  A new
test-only name fails here: give it a caller or delete it.  A pinned name
that gains a caller must leave the list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "primebounds"

TEST_ONLY = {
    # the paper's side facts, which ROADMAP item 10 is to record in one
    # audit document
    "analytic.JParams",
    "analytic.j_function",
    "analytic.panaitopol_coefficients",
    "proofkit.check_lemma_preconditions",
    "proofkit.crossing_integer_threshold",
    "proofkit.dudek_thresholds",
    "proofkit.growth_identity_holds",
    "proofkit.zero_count_bound",
    # reached only from the side facts above: the log-power integral of
    # j_function, and the certified search of dudek_thresholds and
    # crossing_integer_threshold with its two argument types
    "analytic.log_power_integral",
    "proofkit.ElementaryForm",
    "proofkit.ThresholdComparison",
    "proofkit.elementary_crossing",
    # oracles and report tools the tests use on purpose
    "enclosure.Enclosure.contains",
    "verify.merge_reports",
    "verify.reports_equivalent",
}


def _public(name):
    return not name.startswith("_")


def _definitions():
    """(module, qualified name, bare name) of every public definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                yield module, node.name, node.name
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and _public(item.name):
                            yield module, "%s.%s" % (node.name, item.name), item.name
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            if isinstance(getattr(node, "value", None), ast.Subscript):
                continue  # a type alias such as Union[int, Fraction]
            for t in targets:
                if isinstance(t, ast.Name) and _public(t.id):
                    yield module, t.id, t.id


class _Refs(ast.NodeVisitor):
    """Names loaded (names), and attributes read and names imported
    (attrs); type annotations are not callers, so they are skipped, and
    neither are the bodies of the TEST_ONLY definitions of module."""

    def __init__(self):
        self.names = set()
        self.attrs = set()
        self.module = None
        self.classes = []

    def _test_only(self, node):
        return ".".join([self.module] + self.classes + [node.name]) in TEST_ONLY

    def visit_ClassDef(self, node):
        if not self._test_only(node):
            self.classes.append(node.name)
            self.generic_visit(node)
            self.classes.pop()

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Store):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        self.attrs.add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        self.attrs.update(alias.name for alias in node.names)

    def visit_arg(self, node):
        pass

    def visit_FunctionDef(self, node):
        if self._test_only(node):
            return
        for child in node.decorator_list + node.body:
            self.visit(child)
        for default in node.args.defaults + node.args.kw_defaults:
            if default is not None:
                self.visit(default)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


def _references():
    refs = _Refs()
    for folder in ("src", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if not path.name.startswith("test_"):
                refs.module = path.stem
                refs.visit(ast.parse(path.read_text()))
    return refs


def test_every_public_name_has_a_non_test_caller():
    refs = _references()
    unreferenced = {
        "%s.%s" % (module, qual)
        for module, qual, bare in _definitions()
        if bare not in (refs.attrs if "." in qual else refs.names | refs.attrs)
    }
    assert unreferenced - TEST_ONLY == set(), "public names reached only by tests"
    assert TEST_ONLY - unreferenced == set(), "TEST_ONLY names that now have a caller"
