import ast
from pathlib import Path

import procfair
from procfair.models import MODEL_KINDS

SRC = Path(procfair.__file__).parent
# the model families are defined and exported here; every other module reaches
# them through their methods
OWNERS = {SRC / "models.py", SRC / "__init__.py"}
MODEL_CLASSES = {family.__name__ for family in MODEL_KINDS.values()}


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.asname or node.name
    return None


def _family_dispatches(path: Path) -> list[str]:
    """The places in ``path`` that branch on a model's family: any mention
    of ``LogisticModel``, and ``isinstance``/``issubclass`` calls whose class
    argument names a model class."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if _name(node) == "LogisticModel":
            found.append(f"{path.name}:{getattr(node, 'lineno', '?')} names LogisticModel")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2
            and {_name(sub) for sub in ast.walk(node.args[1])} & MODEL_CLASSES
        ):
            found.append(f"{path.name}:{node.lineno} {node.func.id}(")
    return found


def test_only_the_models_module_dispatches_on_the_model_family():
    assert MODEL_CLASSES == {"LogisticModel", "MlpModel"}
    assert _family_dispatches(SRC / "models.py")  # the guard sees what it guards
    strays = [entry for path in sorted(SRC.glob("*.py")) if path not in OWNERS for entry in _family_dispatches(path)]
    assert not strays, f"call a model method instead of branching on its class: {strays}"


# the objectives every family shares, written once outside the family classes
SHARED_OBJECTIVE = {"_clamped_bce", "_delta_scores", "np.sign"}


def _objective_calls(tree: ast.AST) -> list[str]:
    """Calls under ``tree`` of the BCE, the soft-DP score gradient or ``np.sign``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            callee = f"{func.value.id}.{func.attr}" if isinstance(getattr(func, "value", None), ast.Name) else _name(func)
            if callee in SHARED_OBJECTIVE:
                found.append(f"{callee} at line {node.lineno}")
    return found


def test_no_model_family_spells_out_the_objective():
    tree = ast.parse((SRC / "models.py").read_text(encoding="utf-8"))
    assert len(_objective_calls(tree)) >= 3  # the guard sees what it guards
    families = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name in MODEL_CLASSES]
    assert {node.name for node in families} == MODEL_CLASSES
    strays = {node.name: _objective_calls(node) for node in families if _objective_calls(node)}
    assert not strays, f"build the family's steps from _loss_step and _modified_step: {strays}"


# the permutation stream is drawn in two_sample.py, where the test runs, and
# exported from the package; every other module calls permutation_pvalue
MEMBERSHIP_NAMES = {"permutation_memberships", "_draw_memberships"}


def _membership_mentions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{getattr(node, 'lineno', '?')}" for node in ast.walk(tree) if _name(node) in MEMBERSHIP_NAMES]


def test_only_the_two_sample_module_names_the_membership_matrix():
    owners = {SRC / "two_sample.py", SRC / "__init__.py"}
    assert _membership_mentions(SRC / "two_sample.py") and _membership_mentions(SRC / "__init__.py")
    strays = [entry for path in sorted(SRC.glob("*.py")) if path not in owners for entry in _membership_mentions(path)]
    assert not strays, f"call permutation_pvalue instead of handling the membership matrix: {strays}"
