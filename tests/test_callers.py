"""Every public function and class of the library has a caller in src/ or bench/."""

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
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}"


def _references():
    """(module.definition the reference sits in, or None, name) for every name and
    attribute read in src/ and bench/."""
    refs = set()
    for path in [*sorted(SRC.glob("*.py")), *sorted(BENCH.glob("*.py"))]:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            inside = None
            if path.parent == SRC and isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                inside = f"{path.stem}.{top.name}"
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs.add((inside, node.id))
                elif isinstance(node, ast.Attribute):
                    refs.add((inside, node.attr))
    return refs


def test_every_public_name_has_a_caller():
    """A public name is called outside its own definition, or it is on NO_CALLER,
    which must name only such names: a listed name that gains a caller fails too."""
    refs = _references()
    uncalled = {
        qualified
        for qualified in _public_definitions()
        if not any(name == qualified.split(".")[1] and inside != qualified for inside, name in refs)
    }
    assert uncalled == NO_CALLER
