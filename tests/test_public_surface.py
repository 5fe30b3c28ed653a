"""Every public function and every public method of a public class in
``src/sharpmin`` is reached by the package or its scripts: some module or
script names it outside its own definition and the ``__init__`` re-export.
Tests do not count; ``perfbench/tracer.py`` counts as a reader, but its own
members are not checked.  References are matched by name, so a member whose
name another one shares can slip through; a member that nothing names cannot.
A method or property is reached only by an attribute read (``x.norm``), not by
a local variable or parameter of the same name; a module-level function is
reached by either.  An attribute reached through numpy or math
(``np.linalg.norm``) names a library member, not one of ours, and is not a
reference."""

import ast
import importlib
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sharpmin"
READERS = [ROOT / "perfbench" / "tracer.py"]  # scanned for references only

# members kept with no caller, each for the open work that will call it
KEEP = {
    "wsm.check_primal_nc": "the paper's primal necessary condition; "
                           "wsm_penalty_check is to run it (ROADMAP item 1(c))",
    "cones.PatternCone.project": "dist(V, T(P)) = ||project(V)|| for V in T_P St "
                                 "gives the exact contingent-cone distance (ROADMAP item 1(a))",
}


# per-layer metrics of the benchmark whose function is gone from the package,
# each with the change that removed it; they read 0 on every traced run
DEAD_METRICS = {
    "cheeger.calibrate_penalty_weight": "the penalty weight is the fixed "
                                        "PENALTY_C0 max(L, 1), not a calibration",
    "cheeger.dist_upper_estimate": "distances to St+ come from the exact "
                                   "stiefel.slice_distances",
    "cheeger.riemannian_subgradient": "the solver's stacked _subgradient had no "
                                      "other caller",
    "manifolds.exp_map": "the stack form manifolds.exp_coords replaced it",
    "manifolds.retract": "stiefel.qr_retract and manifolds.exp_coords replaced it",
    "stiefel.polar_factor": "no program path called it once the alternating "
                            "projection was gone",
    "wsm.estimate_modulus": "the modulus trace of verify_wsm_sampled's own "
                            "sample replaced it",
}


def _parsed(files):
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in files]


def _sources():
    return _parsed(sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")))


def _public_members(path, tree):
    """(qualified name, bare name, definition node) of each public
    module-level function and public method of a public class."""
    module = path.stem
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


# names the package imports numpy and math as
LIBRARIES = {"np", "numpy", "math"}


def _library_attribute(node):
    """Whether an Attribute's chain is rooted at a numpy or math name."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in LIBRARIES


def _references(tree, attributes_only=False):
    """(name, line) of every Name (unless ``attributes_only``) and Attribute
    in a module, except the attributes of numpy and math; imports are not
    references."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not attributes_only:
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not _library_attribute(node):
            yield node.attr, node.lineno


def _unreferenced(sources, readers=()):
    """Qualified names of the public members of ``sources`` that no module
    of ``sources`` or ``readers`` reaches."""
    scanned = [*sources, *readers]
    names = {path: list(_references(tree)) for path, tree in scanned}
    attributes = {path: list(_references(tree, attributes_only=True)) for path, tree in scanned}
    unused = set()
    for path, tree in sources:
        if path.name == "__init__.py":
            continue
        for qualified, name, node in _public_members(path, tree):
            refs = attributes if qualified.count(".") == 2 else names  # a class member
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and (other != path or line not in own)
                       for other, found in refs.items() for ref, line in found):
                unused.add(qualified)
    return unused


def test_every_public_member_is_reached():
    unused = _unreferenced(_sources(), _parsed(READERS)) - set(KEEP)
    assert not unused, f"public members no command or script reaches: {sorted(unused)}"


def test_keep_list_names_only_unreached_members():
    stale = set(KEEP) - _unreferenced(_sources(), _parsed(READERS))
    assert not stale, f"KEEP entries that are reached or gone: {sorted(stale)}"
    assert all(reason.strip() for reason in KEEP.values())


def test_library_attributes_are_not_references():
    tree = ast.parse("np.linalg.norm(x)\nnumpy.random.default_rng\nmath.pi\nt.norm\n"
                     "f(a).k\n")
    assert sorted(name for name, _ in _references(tree)) == [
        "a", "f", "k", "math", "norm", "np", "numpy", "t", "x"]


def test_class_members_count_only_attribute_reads():
    defs = (Path("vec.py"), ast.parse("class Vec:\n    def norm(self):\n        pass\n\n"
                                      "def norm_of(v):\n    pass\n"))
    shadowed = (Path("user.py"), ast.parse("norm = 1.0\nnorm_of(norm)\n"))
    assert _unreferenced([defs, shadowed]) == {"vec.Vec.norm"}
    read = (Path("reader.py"), ast.parse("norm_of(v.norm())\n"))
    assert _unreferenced([defs], [read]) == set()


def _metric_owners():
    """The function or class each per-layer metric of the benchmark reads,
    as "module.name", except the tracer's own overhead ratio."""
    names = runpy.run_path(str(ROOT / "perfbench" / "run.py"))["PER_LAYER_NAMES"]
    return {name.rsplit(".", 1)[0] for name in names if name != "trace.overhead_ratio"}


def _defined(owner):
    module, name = owner.split(".", 1)
    obj = getattr(importlib.import_module(f"sharpmin.{module}"), name, None)
    return obj is not None and obj.__module__ == f"sharpmin.{module}"


def test_benchmark_metrics_name_live_members():
    dead = {owner for owner in _metric_owners() if not _defined(owner)}
    assert dead == set(DEAD_METRICS), (
        f"metrics of missing members: {sorted(dead - set(DEAD_METRICS))}; "
        f"stale DEAD_METRICS entries: {sorted(set(DEAD_METRICS) - dead)}")
    assert all(reason.strip() for reason in DEAD_METRICS.values())
