"""The value classes: immutable, equal only within their class, hashed,
shown, copied and pickled as the frozen dataclasses they replaced were.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from logcy2.birmap import IDENTITY_MAP, BirationalMap, BoundaryAction, compose, realize
from logcy2.catalog import CountReport, LineBundle, Longitude, Meridian, SheafOnException, StructureSheaf
from logcy2.diagrams import BaseDiagram, Node, make_node
from logcy2.lattice import PLMap, pl_elementary
from logcy2.polyrat import RatFunc2
from logcy2.surfaces import Surface, p2
from logcy2.words import Elementary, Linear, Word, parse_word

# One builder per class and the repr the dataclass gave its value.
VALUES = {
    Linear: (lambda: Linear(((0, 1), (1, 0))), "Linear(mat=((0, 1), (1, 0)))"),
    Elementary: (lambda: Elementary((2, 1)), "Elementary(n=(2, 1))"),
    Word: (lambda: parse_word("E*A[0,1;1,0]"),
           "Word(letters=((Elementary(n=(0, 1)), 1), (Linear(mat=((0, 1), (1, 0))), 1)))"),
    PLMap: (pl_elementary, "PLMap(rays=((0, 1), (0, -1)), mats=(((1, 0), (-1, 1)), ((1, 0), (0, 1))))"),
    RatFunc2: (RatFunc2.x, "RatFunc2('x')"),
    BirationalMap: (lambda: compose(IDENTITY_MAP, realize(parse_word("E"))),  # a new map on each call
                    "BirationalMap(f=RatFunc2('x'), g=RatFunc2('(y) / (x + 1)'))"),
    BoundaryAction: (lambda: BoundaryAction((1, 0), F(-1), 1),
                     "BoundaryAction(ray=(1, 0), coeff=Fraction(-1, 1), exponent=1)"),
    Surface: (lambda: p2((1, 0, 2)), "Surface(rays=((-1, -1), (1, 0), (0, 1)), m=(2, 1, 0))"),
    Node: (lambda: make_node((F(1, 2), F(0)), (1, 0), 1),
           "Node(position=(Fraction(1, 2), 0), direction=(1, 0), cut_sign=1)"),
    BaseDiagram: (lambda: BaseDiagram((make_node((F(2), F(0)), (-1, 0), -1),)),
                  "BaseDiagram(nodes=(Node(position=(2, 0), direction=(1, 0), cut_sign=1),))"),
    SheafOnException: (lambda: SheafOnException(1, 2), "SheafOnException(ray_index=1, blowup_index=2)"),
    StructureSheaf: (StructureSheaf, "StructureSheaf()"),
    LineBundle: (lambda: LineBundle(3), "LineBundle(prefix_length=3)"),
    Meridian: (lambda: Meridian(1, 2), "Meridian(ray_index=1, blowup_index=2)"),
    Longitude: (lambda: Longitude(1, (0, 1, -1)), "Longitude(index=1, twist_vector=(0, 1, -1))"),
    CountReport: (lambda: CountReport(1, 2, 3, 4, 5),
                  "CountReport(exceptional_count=1, vanishing_count=2, chi_y=3, sphere_count=4, expected_spheres=5)"),
}
CLASSES = pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)


@CLASSES
def test_equal_values_have_equal_hashes_and_the_dataclass_repr(cls):
    build, shown = VALUES[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == shown


@CLASSES
def test_a_value_never_equals_one_of_another_class(cls):
    # Meridian(1, 2) and SheafOnException(1, 2) have the same fields, unlike NamedTuples.
    a = VALUES[cls][0]()
    others = [VALUES[other][0]() for other in VALUES if other is not cls]
    assert all(a != b for b in others) and len({a, *others}) == len(VALUES)
    assert a != tuple(getattr(a, name) for name in cls.__slots__)


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    a = VALUES[cls][0]()
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == VALUES[cls][1]


@CLASSES
def test_copy_and_pickle_return_an_equal_value(cls):
    a = VALUES[cls][0]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a and hash(b) == hash(a)


def test_steps_stay_out_of_equality_hash_and_repr_but_survive_a_copy():
    m = realize(parse_word("E"))
    bare = BirationalMap(m.f, m.g)
    assert m.steps and bare.steps is None
    assert m == bare and hash(m) == hash(bare) and repr(m) == repr(bare)
    assert pickle.loads(pickle.dumps(m)).steps == copy.copy(m).steps == m.steps
    assert BirationalMap(IDENTITY_MAP.f, IDENTITY_MAP.g) == IDENTITY_MAP


def test_nodes_sort_as_the_dataclass_ordered_them():
    # Field by field: position, then direction, then cut sign.
    nodes = [Node((F(1), F(0)), (1, 0), 1), Node((F(-1), F(1)), (1, -1), -1), Node((F(1), F(0)), (1, 0), -1),
             Node((F(0), F(2)), (0, 1), 1), Node((F(-1), F(1)), (1, -1), 1), Node((F(0), F(-1)), (0, 1), 1)]
    assert [(n.position, n.cut_sign) for n in sorted(nodes)] == [
        ((F(-1), F(1)), -1), ((F(-1), F(1)), 1), ((F(0), F(-1)), 1), ((F(0), F(2)), 1),
        ((F(1), F(0)), -1), ((F(1), F(0)), 1),
    ]
    low, high = nodes[2], nodes[0]
    assert low < high and low <= high and high > low and high >= low and low <= low
    with pytest.raises(TypeError):
        low < 0
    assert sorted(nodes, reverse=True) == sorted(nodes)[::-1]
