"""Every optional parameter and dataclass option field in src/onofri.

The battery checks the paper's claims at fixed resolutions, so tolerances,
resolutions and iteration budgets are module constants, and a value is
settable only when it chooses the field, the grid or the domain.  KNOBS
lists every settable value; a change that adds one has to add it here.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "onofri"

# (qualified name, parameter or field)
KNOBS = {
    ("acceptance.run_battery", "criteria"),
    ("acceptance.run_verify", "determinism"),
    ("axisym.random_start_1d", "amplitude"),
    ("axisym.random_start_1d", "degree"),
    ("cli.main", "argv"),
    ("eigen.bol_audit", "h"),
    ("eigen.zero_eigenvalue_radius", "h"),
    ("errors.NonConvergenceError.__init__", "best"),
    ("errors.NonConvergenceError.__init__", "residual"),
    ("functional.random_start", "amplitude"),
    ("functional.random_start", "degree"),
    ("planar.PlanarField", "lap_evaluator"),
    ("planar.PlanarField", "ring_evaluator"),
    ("planar.liouville_bubble_field", "a"),
    ("planar.liouville_bubble_field", "center"),
    ("shooting.beta_curve", "r_max"),
    ("shooting.shoot", "r_max"),
    ("sphere.build_grid", "n_mu"),
    ("sphere.build_grid", "n_phi"),
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _has_default(value: ast.expr) -> bool:
    """A dataclass field's value gives a default unless it is field(...)
    without default or default_factory."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return True


def _knobs(node, prefix: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            args = child.args
            positional = args.posonlyargs + args.args
            optional = positional[len(positional) - len(args.defaults):]
            optional += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from ((name, a.arg) for a in optional)
            yield from _knobs(child, name)
        elif isinstance(child, ast.ClassDef):
            name = f"{prefix}.{child.name}"
            if _is_dataclass(child):
                yield from ((name, st.target.id) for st in child.body
                            if isinstance(st, ast.AnnAssign) and st.value is not None
                            and _has_default(st.value))
            yield from _knobs(child, name)


def find_knobs() -> set:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_knobs(ast.parse(path.read_text()), path.stem))
    return found


def test_every_settable_value_is_listed():
    found = find_knobs()
    assert sorted(found - KNOBS) == [], "new settable values: add them to KNOBS"
    assert sorted(KNOBS - found) == [], "values no longer settable: remove them from KNOBS"
