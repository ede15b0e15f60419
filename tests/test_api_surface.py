"""The public surface of tglab holds nothing that only tests run.

Every public top-level function and class in src/tglab is either used by name
(an ast.Name or ast.Attribute, not a string or a comment) somewhere in the
package outside its own definition, or it is paper-level API declared below.
Only top-level names are guarded: methods and properties are not checked, and
an attribute of the same name anywhere (say `.sample`) counts as a use.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tglab"

# Paper-level quantities that callers compute directly; nothing in the
# package calls them.
DECLARED_API = {
    "expected_f",
    "efsq_series",
    "efsq_first_order",
    "resource_ratio",
    "fidelity_value",
    "click_density_joint",
    "click_density_second",
    "success_probability",      # sample_dh reads Theta_1, Theta_2 from its context instead
    "sample_clicks_array",
    "single_system_click_density",
    "tabulate_profile",
    # the oracle's one-graph entry point; the package builds its states in
    # batches through build_states
    "build_state",
}


def _scan():
    """({public top-level name: module}, {names used outside their own definition})."""
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined[own] = path.stem
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            used |= names - {own}
    return defined, used


def test_every_public_name_has_a_caller_or_is_declared():
    defined, used = _scan()
    uncalled = sorted(f"{module}.{name}" for name, module in defined.items()
                      if name not in used and name not in DECLARED_API)
    assert uncalled == []


def test_declared_api_exists():
    defined, _ = _scan()
    assert DECLARED_API <= set(defined)
