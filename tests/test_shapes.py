"""One matrix rule: ``data.checked_matrix`` is the library's only shape check, so
every matrix input refuses a shape that is not 2-D with a row and a column in the
same words, and no module but ``data`` reads ``.ndim``. (A VIEWS file that declares
``dim=0`` is refused at its header: see ``test_empty_header_names_the_file``.)"""

import ast
from pathlib import Path

import numpy as np
import pytest

import augoverlap
from augoverlap.data import EmbeddingSet, ViewSet
from augoverlap.geomsim import GeomConfig, longest_mst_edge

# (input, the name its errors give it, the constructor or call given an array of some shape)
INPUTS = [
    ("EmbeddingSet", "embedding", EmbeddingSet),
    ("ViewSet", "view", lambda v: ViewSet(v, n=3, c=1)),
    ("GeomConfig", "class center", lambda v: GeomConfig(d=3, n=10, area=1.0, class_centers=v)),
    ("longest_mst_edge", "point", longest_mst_edge),
]
SHAPES = [(3,), (2, 2, 2), (0, 3), (3, 0)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name, call", [i[1:] for i in INPUTS], ids=[i[0] for i in INPUTS])
def test_matrix_inputs_reject_a_bad_shape_in_one_text(name, call, shape):
    with pytest.raises(ValueError) as exc:
        call(np.zeros(shape))
    assert str(exc.value) == f"{name} matrix must be 2-D and non-empty, got shape {shape}"


# (module, top-level name) pairs allowed to read ``.ndim``: pearson checks 1-D sequences, not a matrix
NDIM_READERS = {("metrics", "pearson")}


def test_only_data_reads_ndim():
    """Outside ``data`` a shape is never checked by hand: ``.ndim`` is read only in
    NDIM_READERS, and each of those reads it."""
    readers = set()
    for path in sorted(Path(augoverlap.__file__).parent.glob("*.py")):
        if path.stem == "data":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:  # each def, class or module statement
            if any(isinstance(node, ast.Attribute) and node.attr == "ndim" for node in ast.walk(top)):  # x.ndim and np.ndim
                readers.add((path.stem, getattr(top, "name", None)))
    assert readers == NDIM_READERS
