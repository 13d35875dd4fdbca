"""Value semantics of the package's immutable classes.

Equal fields give equal objects with equal hashes, no attribute can be set
or deleted, the custom ``repr`` forms stay, and invalid input raises
``ValueError``.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from leavitt.algebra import CkFamily, LpaElement, element
from leavitt.corners import Forest
from leavitt.graph import Edge, Graph, PathSeq
from leavitt.ktheory import IntMatrix, KSummary
from leavitt.monoid import MonoidElement, NotWithinBound
from leavitt.moves import MoveRecord

E = Edge("e", "v", "w")

# name -> (a factory of one value, a factory of a different value)
VALUES = {
    "Graph": (lambda: Graph(("v", "w"), [("e", "v", "w")]),
              lambda: Graph(("v", "w"), ())),
    "PathSeq": (lambda: PathSeq("v", (E,)), lambda: PathSeq("v")),
    "MonoidElement": (lambda: MonoidElement([("w", 1), ("v", 2)]),
                      lambda: MonoidElement([("v", 2)])),
    "MoveRecord": (lambda: MoveRecord("AttachHead", ("v", "1"), "0" * 16, "1" * 16),
                   lambda: MoveRecord("AttachHead", ("v", "2"), "0" * 16, "1" * 16)),
    "KSummary": (lambda: KSummary((1, 2), 3, 3, 0), lambda: KSummary((1, 3), 3, 3, 0)),
    "IntMatrix": (lambda: IntMatrix([[1, 2], [3, 4]]), lambda: IntMatrix([[1, 2]])),
    "Forest": (lambda: Forest(Graph(("v", "w"), (E,)), ("v",), (E,)),
               lambda: Forest(Graph(("v", "w"), (E,)), ("v", "w"), ())),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_give_equal_objects_with_equal_hashes(name):
    make, make_other = VALUES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != make_other()
    assert a != object()


def test_constructors_normalize_before_comparing():
    assert Graph(("v", "w"), [("e", "v", "w")]) == Graph(("v", "w"), (E,))
    assert MonoidElement([("w", 1), ("v", 2)]) == MonoidElement([("v", 2), ("w", 1)])
    assert IntMatrix([[1, 2]]) == IntMatrix(((1, 2),))
    assert PathSeq("v", (E,)).target == "w"


def test_elements_compare_by_terms_and_are_unhashable():
    p = PathSeq("v")
    assert element([(1, p, p)]) == element([(1, p, p)])
    assert element([(1, p, p)]) != element([(2, p, p)])
    assert element([(1, p, p)]) != object()
    assert LpaElement() == LpaElement({}) and not LpaElement()
    with pytest.raises(TypeError):
        hash(element([(1, p, p)]))
    family = CkFamily({"v": element([(1, p, p)])}, {})
    assert family == CkFamily({"v": element([(1, p, p)])}, {})
    assert isinstance(family.vertex_images, dict)


MAKERS = {name: make for name, (make, _) in VALUES.items()}
MAKERS.update(LpaElement=LpaElement,
              CkFamily=lambda: CkFamily({"v": element([(1, PathSeq("v"), PathSeq("v"))])}, {}))


@pytest.mark.parametrize("name, field", [
    ("Graph", "vertices"), ("PathSeq", "source"), ("PathSeq", "target"),
    ("MonoidElement", "counts"), ("MoveRecord", "kind"), ("KSummary", "invariant_factors"),
    ("KSummary", "rank_k0"), ("IntMatrix", "cells"), ("IntMatrix", "entries"),
    ("Forest", "roots"), ("LpaElement", "terms"), ("CkFamily", "vertex_images"),
])
def test_attributes_cannot_be_set_or_deleted(name, field):
    obj = MAKERS[name]()
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_cached_properties_stay_read_only():
    g = Graph(("v", "w"), (E,))
    assert g.vertex_set == {"v", "w"}
    with pytest.raises(AttributeError):
        g.vertex_set = frozenset()
    t = Forest(g, ("v",), (E,))
    assert t.parent == {"w": E}
    with pytest.raises(AttributeError):
        t.parent = {}


def test_custom_reprs():
    assert repr(Graph(("v", "w"), (E,))) == "Graph(2 vertices, 1 edges)"
    assert repr(PathSeq("v", (E,))) == "PathSeq('e')"
    assert repr(MonoidElement([("v", 2)])) == "MonoidElement('v:2')"
    assert repr(IntMatrix([[1, 2]])) == "IntMatrix(1x2)"
    assert repr(NotWithinBound(True)) == "NotWithinBound(exhausted=True)"


@pytest.mark.parametrize("make", [
    lambda: PathSeq("v", (E, E)),  # e ends at w, so e cannot follow it
    lambda: MoveRecord("Teleport", ("v",), "", ""),
    lambda: MoveRecord("AttachHead", ("v",), "", ""),
    lambda: IntMatrix([[1, 2], [3]]),
    lambda: IntMatrix([[1.5]]),
    lambda: IntMatrix([[True]]),
    lambda: MonoidElement([("v", 1), ("v", 2)]),
    lambda: MonoidElement([("v", 0)]),
    lambda: Graph(("v", "v")),
    lambda: Graph(("v",), [("e", "v", "w")]),
    lambda: Forest(Graph(("v", "w"), (E, Edge("f", "w", "v"))), (),
                   (E, Edge("f", "w", "v"))),
    # namedtuple's _make and _replace would skip the constructor's checks: a
    # narrowed matrix made SNF raise IndexError, a float entry gave a float
    # factor, and this monoid element made a search answer wrongly
    lambda: IntMatrix([[1, 2], [3, 4]])._replace(cols=1),
    lambda: IntMatrix._make(((((0, 2.5),),), 1)),
    lambda: IntMatrix._make(((((0, True),),), 1)),
    lambda: IntMatrix._make(((((1, 3), (0, 2)),), 2)),
    lambda: IntMatrix._make(((((0, 1), (0, 2)),), 2)),
    lambda: IntMatrix._make(((((0, 0),),), 1)),
    lambda: IntMatrix._make(((((0.0, 1),),), 1)),
    lambda: IntMatrix._make(((((-1, 1),),), 1)),
    lambda: IntMatrix._make(((), -1)),
    lambda: MonoidElement([("v", 1)])._replace(counts=(("w", 0), ("v", -2), ("v", 5))),
    lambda: MonoidElement._make(((("v", 1.5),),)),
], ids=["path", "move-kind", "move-arity", "ragged", "non-integer", "bool-entry",
        "duplicate-vertex", "zero-count", "graph-duplicate", "graph-endpoint", "forest-cycle",
        "matrix-narrowed", "matrix-float-value", "matrix-bool-value", "matrix-columns-unsorted",
        "matrix-column-repeated", "matrix-zero-stored", "matrix-float-column",
        "matrix-negative-column", "matrix-negative-width", "monoid-replaced",
        "monoid-float-count"])
def test_invalid_input_raises_value_error(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("name", ["PathSeq", "MonoidElement", "MoveRecord", "KSummary",
                                  "IntMatrix", "CkFamily"])
def test_tuples_round_trip_through_make_replace_copy_and_pickle(name):
    value = MAKERS[name]()
    assert type(value)._make(tuple(value)) == value
    assert value._replace() == value
    assert copy.copy(value) == value and copy.deepcopy(value) == value
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value
    if name == "CkFamily":
        # _make and _replace copy the images into dicts, as the constructor does
        images = {"v": element([(1, PathSeq("v"), PathSeq("v"))])}
        made = CkFamily._make((images, {}))
        assert made.vertex_images == images and made.vertex_images is not images
        replaced = value._replace(vertex_images=list(images.items()))
        assert type(replaced.vertex_images) is dict and replaced == made


def test_elements_round_trip_through_copy_and_pickle():
    p, q = PathSeq("v", (E,)), PathSeq("w")
    x = element([(3, p, p), (Fraction(1, 2), q, q)])
    for back in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(back) is LpaElement and back == x


def test_a_widened_matrix_gains_a_zero_column():
    assert IntMatrix([[1, 2], [3, 4]])._replace(cols=3) == IntMatrix([[1, 2, 0], [3, 4, 0]])
