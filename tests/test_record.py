import dataclasses
import inspect
from functools import cached_property
from itertools import product
from types import MappingProxyType

import pytest

import astriples as at
from astriples import (asl2, constructions, core, designs, enumeration,
                       hypermatrix, permgroup)
from astriples.record import Record

from naive import dataclass_twin


class Pair(Record):
    left: int
    right: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "right", tuple(self.right))

    @cached_property
    def total(self):
        return self.left + len(self.right)


class Handle(Record, eq=False):
    name: str


def _outcome(make):
    """What ``make()`` gives: ("ok", repr, hash) or the exception type."""
    try:
        value = make()
    except Exception as exc:    # the type is what is compared
        return type(exc)
    try:
        return "ok", repr(value), hash(value)
    except TypeError:
        return "ok", repr(value), TypeError


def _same_behaviour(record, twin, calls):
    for args, kwargs in calls:
        assert _outcome(lambda: record(*args, **kwargs)) == \
            _outcome(lambda: twin(*args, **kwargs)), (args, kwargs)


def test_records_match_frozen_dataclasses():
    twin = dataclass_twin(Pair)
    calls = [((1,), {}), ((1, [2, 3]), {}), ((), {"left": 1}),
             ((1,), {"right": (4,)}), ((), {"right": (), "left": 0}),
             ((), {}), ((1, (), 3), {}), ((1,), {"left": 2}),
             ((1,), {"middle": 2})]
    _same_behaviour(Pair, twin, calls)
    values = [((1,), {}), ((1, [2]), {}), ((1, (2,)), {}), ((2,), {})]
    for (a, ka), (b, kb) in product(values, repeat=2):
        assert (Pair(*a, **ka) == Pair(*b, **kb)) == \
            (twin(*a, **ka) == twin(*b, **kb))
        assert (Pair(*a, **ka) != Pair(*b, **kb)) == \
            (twin(*a, **ka) != twin(*b, **kb))
    assert Pair(1) != twin(1) and Pair(1) != (1, ())
    pair, other = Pair(1, [2]), twin(1, [2])
    for obj in (pair, other):
        for change in (lambda: setattr(obj, "left", 2),
                       lambda: setattr(obj, "fresh", 2),
                       lambda: delattr(obj, "left")):
            with pytest.raises(AttributeError):
                change()
    assert (pair.left, pair.right) == (other.left, other.right) == (1, (2,))
    assert pair.total == 2 and pair.__dict__["total"] == 2


def test_eq_false_records_compare_by_identity():
    twin = dataclass_twin(Handle, eq=False)
    for cls in (Handle, twin):
        one, same = cls("a"), cls("a")
        assert one == one and one != same
        assert hash(one) == object.__hash__(one)
    assert repr(Handle("a")) == repr(twin("a")) == "Handle(name='a')"


def _record_classes():
    return sorted(((module.__name__, cls) for module in (
        asl2, constructions, core, designs, enumeration, hypermatrix,
        permgroup) for cls in vars(module).values()
        if inspect.isclass(cls) and issubclass(cls, Record)
        and cls.__module__ == module.__name__),
        key=lambda pair: (pair[0], pair[1].__name__))


def test_library_records_declare_what_their_dataclass_twins_do():
    classes = _record_classes()
    assert len(classes) == 20
    for _module, cls in classes:
        eq = cls.__eq__ is not object.__eq__
        twin = dataclass_twin(cls, eq=eq)
        assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
        assert cls._defaults == {
            f.name: f.default for f in dataclasses.fields(twin)
            if f.default is not dataclasses.MISSING}
    assert [cls.__name__ for _, cls in classes
            if cls.__eq__ is object.__eq__] == ["PermutationGroup"]


def test_library_records_behave_as_their_dataclass_twins(three_point):
    ground = at.GroundSet(3)
    cases = [
        (core.GroundSet, [((4,), {}), ((2,), {}), (("4",), {})]),
        (core.ValencyTable, [((((0, 0, 1),),), {})]),
        (core.IntersectionTensor, [(((MappingProxyType({}),),), {})]),
        (core.ViolationReport, [((2, (4,), ((0, 1, 2),), "bad"), {})]),
        (core.AstScheme, [((three_point.partition,
                            three_point.valencies), {})]),
        (enumeration.EnumerationTask, [((ground,), {}),
                                       ((ground,), {"node_limit": 5}),
                                       ((), {})]),
        (constructions.FusionGrouping, [((((4,), (0,), (1,), (2,), (3,)),),
                                         {})]),
        (hypermatrix.AlgebraElement, [((three_point, [0, 0, 0, 0, 1]), {}),
                                      ((three_point, [1]), {})]),
        (designs.TwoGraph, [((3, ((0, 1, 2),)), {})]),
    ]
    for cls, calls in cases:
        _same_behaviour(cls, dataclass_twin(cls), calls)
    # a __post_init__ that rewrites a field, and cached properties
    coeffs = [0, 0, 0, 0, 1]
    element = hypermatrix.AlgebraElement(three_point, coeffs)
    twin = dataclass_twin(hypermatrix.AlgebraElement)(three_point, coeffs)
    assert element.coeffs == twin.coeffs == (0, 0, 0, 0, 1)
    scheme = core.AstScheme(three_point.partition, three_point.valencies)
    assert "bit_cache" not in scheme.__dict__
    assert scheme.bit_cache == {}
    assert scheme.__dict__["bit_cache"] is scheme.bit_cache
