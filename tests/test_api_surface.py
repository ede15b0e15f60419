"""The public surface of tglab holds nothing that only tests run.

Every public top-level function and class in src/tglab, and every public
method and property of a top-level class, is either used by name (an ast.Name
or ast.Attribute, not a string or a comment) somewhere in the package outside
its own definition, or it is declared below with the reason it stays.

Uses are matched by name only, so a name collision counts as a use: any
attribute of the same name on any object keeps a method alive.  So
`LeakageProfile.cdf` counts as used through the `.cdf` of a table and of a
law, and `StateVector.norm` through `np.linalg.norm`.
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
    "single_system_click_density",
    # the oracle's one-graph entry point; the package builds its states in
    # batches through build_states
    "build_state",
}

# Methods and properties that only code outside the package uses, with why.
DECLARED_METHODS = {
    "TiltedGraph.components": "the perfbench harness wraps it as a traced layer",
    "TiltedGraph.map_vertex": "the perfbench harness wraps it among the graph rewrites",
    "LeakageProfile.sample": "the perfbench harness wraps it for the leakage.sample metrics",
    "StateVector.qubit_count": "the perfbench harness reads it for oracle.build_state.max_qubits",
    "TiltedGraph.from_text": "reads back the grow_graph.txt artifact that to_text writes",
}


def _names(node, own):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))} - own


def _scan():
    """({public name: module}, {names used outside their own definition}).

    Public names are the top-level functions and classes ("name") and the
    methods and properties of top-level classes ("Class.name").
    """
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                used |= _names(stmt, set())
                continue
            if not stmt.name.startswith("_"):
                defined[stmt.name] = path.stem
            if isinstance(stmt, ast.FunctionDef):
                used |= _names(stmt, {stmt.name})
                continue
            for part in stmt.decorator_list + stmt.bases + stmt.keywords:
                used |= _names(part, set())
            for member in stmt.body:
                own = {stmt.name}
                if isinstance(member, ast.FunctionDef):
                    own.add(member.name)
                    if not member.name.startswith("_"):
                        defined[f"{stmt.name}.{member.name}"] = path.stem
                used |= _names(member, own)
    return defined, used


def test_every_public_name_has_a_caller_or_is_declared():
    defined, used = _scan()
    declared = DECLARED_API | set(DECLARED_METHODS)
    uncalled = sorted(f"{module}.{name}" for name, module in defined.items()
                      if name.rsplit(".", 1)[-1] not in used and name not in declared)
    assert uncalled == []


def test_declared_api_exists():
    defined, _ = _scan()
    assert DECLARED_API | set(DECLARED_METHODS) <= set(defined)
