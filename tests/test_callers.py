"""Every public function, class, method and property of the library has a caller in
src/ or bench/."""

import ast
from pathlib import Path

import augoverlap

SRC = Path(augoverlap.__file__).parent
BENCH = SRC.parents[1] / "bench"

# public names with no caller in src/ or bench/, kept for their unit tests and the
# acceptance criteria (criterion 9 uses garc and pearson, criterion 11
# dependent_pairs); ROADMAP item 8 decides which of them go
NO_CALLER = {
    "bounds.full_report",
    "geomsim.nn_distance_closed_form",
    "losses.alignment_uniformity",
    "losses.label_consistency_alpha",
    "metrics.garc",
    "metrics.pearson",
    "synth.dependent_pairs",
}


def _public_definitions():
    """module.name for each public function and class, and module.Class.name for
    each public method and property of a public class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}"
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            yield f"{path.stem}.{node.name}.{item.name}"


def _references():
    """(the definitions the reference sits in, name) for every name and attribute
    read in src/ and bench/. The definitions are a module-level function or class
    of src/ and, inside a class, the method: empty for the rest."""
    refs = set()
    for path in [*sorted(SRC.glob("*.py")), *sorted(BENCH.glob("*.py"))]:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            inside, method_of = (), {}
            if path.parent == SRC and isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                inside = (f"{path.stem}.{top.name}",)
                for item in top.body if isinstance(top, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef):
                        method_of.update(dict.fromkeys(map(id, ast.walk(item)), f"{inside[0]}.{item.name}"))
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    where = inside + ((method_of[id(node)],) if id(node) in method_of else ())
                    refs.add((where, node.id if isinstance(node, ast.Name) else node.attr))
    return refs


def test_every_public_name_has_a_caller():
    """A public name is called outside its own definition, or it is on NO_CALLER,
    which must name only such names: a listed name that gains a caller fails too.
    Methods and properties are matched by their attribute name."""
    refs = _references()
    uncalled = {
        qualified
        for qualified in _public_definitions()
        if not any(name == qualified.rsplit(".", 1)[1] and qualified not in where for where, name in refs)
    }
    assert uncalled == NO_CALLER
