"""Module boundaries inside the package, checked on the source's syntax tree."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zetasieve"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(path: Path) -> list[str]:
    """Names with a leading underscore that this module takes from another.

    Covers `from .other import _name` and `other._name` where `other` was
    bound by importing a package module.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("zetasieve")
        ):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}: imports {alias.name}")
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("zetasieve"):
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"{path.name}: reads {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    assert private_reads(path) == []


def test_the_checker_sees_private_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import representations as rep\n"
        "from .admissible import _power_sieve\n"
        "rep._base_data(6)\n"
    )
    assert len(private_reads(probe)) == 2


def package_imports(path: Path) -> set[str]:
    """Package modules this module imports, relatively or by full name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif not isinstance(node, ast.ImportFrom):
            continue
        elif node.module in (None, "zetasieve"):
            # from . import x  /  from zetasieve import x
            modules = [f"zetasieve.{alias.name}" for alias in node.names]
        elif node.level > 0:
            modules = [f"zetasieve.{node.module}"]
        else:
            modules = [node.module]
        found.update(
            m.split(".")[1] for m in modules if m.startswith("zetasieve.")
        )
    return found


def bool_checks(path: Path) -> list[str]:
    """Calls isinstance(x, bool) or isinstance(x, (..., bool, ...))."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                found.append(f"{path.name}:{node.lineno}")
    return found


def two_pi_divisions(path: Path) -> list[str]:
    """Expressions TWO_PI / x, bare or read off a module: lattice spacings."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            left = node.left
            name = getattr(left, "id", None) or getattr(left, "attr", None)
            if name == "TWO_PI":
                found.append(f"{path.name}:{node.lineno}")
    return found


# Each walker over the bases, and the functions that alone may call it.
WALKERS = {"_split": {"_tree_sum"}, "_in_order": {"_tree_sum", "_prefix_sums"}}


# Each sum that gates its own points, the only callers of the pole gate:
# the evaluators' checks and the targets' one kernel, with _pairs_at,
# which raises the refusal the kernel marks; the gate's no-scan test is
# called only by the gate and the kernel, which puts every point it does
# not clear through the gate.
GATED_SUMS = {
    "pole_gate": {"_prepare", "_bernoulli_checks", "_array_kernel", "_pairs_at"},
    "clear_of_poles": {"pole_gate", "_array_kernel"},
}


# The front door of the evaluators: every form and derivative_partial check
# their point and prefactor in _prepare; nearest_pole, which takes no
# prefactor, checks its own points.
FRONT_DOOR = {
    "check_point": {"_prepare", "nearest_pole"},
    "_eta_prefactor": {"_prepare"},
}


def walker_calls(path: Path, allowed=WALKERS) -> list[str]:
    """Calls of a name in allowed (WALKERS unless given), bare or read off
    a module, outside the bodies of the functions it allows."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {}
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                inside.setdefault(id(node), set()).add(function.name)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in allowed and not allowed[name] & inside.get(id(node), set()):
                found.append(f"{path.name}:{node.lineno}")
    return found


# The int64 bases of an admissible set, built only when one of these is read.
BASE_ATTRIBUTES = {"bases", "members"}


def base_reads(path: Path) -> list[str]:
    """Reads of an attribute in BASE_ATTRIBUTES, as x.bases or as
    getattr(x, "bases")."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            name = node.args[1].value
        else:
            continue
        if name in BASE_ATTRIBUTES:
            found.append(f"{path.name}:{node.lineno}")
    return found


def set_constructions(path: Path) -> list[str]:
    """Calls that make an AdmissibleSet: AdmissibleSet(...), bare or read
    off a module, or a method read off the class, such as
    AdmissibleSet._in_store(...)."""
    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and name(func.value) == "AdmissibleSet":
                func = func.value
            if name(func) == "AdmissibleSet":
                found.append(f"{path.name}:{node.lineno}")
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "admissible.py"], ids=lambda p: p.name
)
def test_only_admissible_makes_sets(path):
    # Every set is the store's view up to its limit, from admissible_up_to;
    # a set made elsewhere could disagree with its limit.
    assert set_constructions(path) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("admissible.py", "cli.py")],
    ids=lambda p: p.name,
)
def test_only_the_terms_command_builds_the_bases(path):
    # The evaluators take counts and bases from the perfect powers, and a
    # target takes its logs and signs from the store, so only the terms
    # command builds the 8-byte-per-base int64 array.
    assert base_reads(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_tree_sum_walks_the_pairwise_tree(path):
    # One walker over the bases: every other sum hands _tree_sum a leaf,
    # and only it and the prefix sums hand work to the helper thread.
    assert walker_calls(path) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "representations.py"],
    ids=lambda p: p.name,
)
def test_only_representations_spaces_the_pole_lattice(path):
    # The pole lattice 2*pi*i*k/log(r) is written down once, in
    # representations; others ask it through nearest_pole and pole_gate.
    assert two_pi_divisions(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_sums_call_the_pole_gate(path):
    # The rule lives where the sum is computed: the evaluators' checks and
    # the targets' kernel.  Newton, its polish steps and a target's
    # value_at reach the gate only through the kernel.
    assert walker_calls(path, GATED_SUMS) == []


def test_every_form_enters_through_prepare():
    # One entry check for the five forms and the tables, so an order, a
    # point or a prefactor is refused alike whichever form is asked.
    assert walker_calls(PACKAGE / "representations.py", FRONT_DOOR) == []


def test_reference_imports_only_errors():
    # The oracle audits the representations, so it must not be built on them.
    assert package_imports(PACKAGE / "reference.py") == {"errors"}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "errors.py"], ids=lambda p: p.name
)
def test_only_errors_checks_for_bools(path):
    # Argument checks live in errors (check_int, check_real, check_point).
    assert bool_checks(path) == []


def test_the_walkers_see_planted_cases(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .errors import InputError\n"
        "from . import representations\n"
        "import zetasieve.rootfind\n"
        "from zetasieve.admissible import admissible_up_to\n"
        "from zetasieve import bernoulli\n"
        "import numpy\n"
        "isinstance(n, bool)\n"
        "isinstance(n, (int, bool))\n"
        "isinstance(n, int)\n"
        "spacing = TWO_PI / lg\n"
        "spacing = representations.TWO_PI / lg\n"
        "turns = phase / TWO_PI\n"
        "def _tree_sum(count):\n"
        "    def walk(c):\n"
        "        return _split(c, False)\n"
        "    return _in_order((walk, walk))\n"
        "def nearest_pole(z, n):\n"
        "    split = _split(n, real=False)\n"
        "    return representations._in_order((f, g))\n"
        "def _prefix_sums(jobs):\n"
        "    for t in _in_order(jobs):\n"
        "        _split(7, False)\n"
        "_split(7, True)\n"
        "_in_order(jobs)\n"
        "_tree_sum(7, make_leaf)\n"
        "def newton_refine(target, z):\n"
        "    pole_gate(z, target.n)\n"
        "def _gated(self, z):\n"
        "    pole_gate(z, self.n)\n"
        "representations.pole_gate(0j, 6)\n"
        "def _array_kernel(target):\n"
        "    def pairs(zr, zi):\n"
        "        pole_gate(complex(zr[0], zi[0]), target.n)\n"
        "        return clear_of_poles(zr)\n"
        "def _polish(z):\n"
        "    return clear_of_poles(z.real)\n"
        "representations.clear_of_poles(0.5)\n"
        "top = admissible_up_to(9).bases[-1]\n"
        "first = aset.members[0]\n"
        "bases = getattr(aset, 'bases')\n"
        "members = getattr(admissible_up_to(6), 'members', ())\n"
        "powers, count = aset.powers, aset.term_count\n"
        "aset = AdmissibleSet(2, (2,), 1)\n"
        "aset = admissible.AdmissibleSet(limit=3)\n"
        "aset = AdmissibleSet._in_store(3, powers)\n"
        "aset = admissible.AdmissibleSet.__new__(admissible.AdmissibleSet)\n"
        "isinstance(aset, AdmissibleSet)\n"
        "def _prepare(kind, z, n):\n"
        "    return check_point(z), _eta_prefactor(z)\n"
        "def zeta_bernoulli_partial(z, n, M):\n"
        "    z = errors.check_point(z)\n"
        "def partial_sum_table(kind, z):\n"
        "    p = _eta_prefactor(check_point(z))\n"
    )
    assert package_imports(probe) == {
        "errors", "representations", "rootfind", "admissible", "bernoulli"
    }
    assert len(bool_checks(probe)) == 2
    assert len(two_pi_divisions(probe)) == 2
    assert len(walker_calls(probe)) == 5
    assert len(walker_calls(probe, GATED_SUMS)) == 5
    assert len(base_reads(probe)) == 4
    assert len(set_constructions(probe)) == 4
    assert len(walker_calls(probe, FRONT_DOOR)) == 3


def traced_attributes() -> list[tuple[str, str]]:
    """(module, attribute) pairs of the benchmark's TRACED table."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [
                (entry.elts[0].value, entry.elts[1].value)
                for entry in node.value.elts
            ]
    raise AssertionError("bench/tracing.py has no TRACED table")


def test_traced_attributes_exist():
    # The traced benchmark run wraps these at the module attribute; a
    # refactor that renames or stops importing one breaks that run.
    pairs = traced_attributes()
    assert pairs
    missing = [
        (module, attr)
        for module, attr in pairs
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
