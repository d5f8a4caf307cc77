"""Record classes: construction, equality, hashing, immutability and replace."""

import pytest

import baxcat as bx
from baxcat.baxterize import CycleCheck
from baxcat.category import ObjectLabel, QuantumDims


def test_positional_and_keyword_construction_agree():
    a = CycleCheck((0, 2), (0, 2), 0.5, 3)
    b = CycleCheck(closing_edge=(0, 2), samples=3, vertices=(0, 2), residual=0.5)
    c = CycleCheck((0, 2), (0, 2), samples=3, residual=0.5)
    assert a == b == c
    assert (a.vertices, a.closing_edge, a.residual, a.samples) == ((0, 2), (0, 2), 0.5, 3)
    assert repr(a) == "CycleCheck(vertices=(0, 2), closing_edge=(0, 2), residual=0.5, samples=3)"


@pytest.mark.parametrize("args, kwargs, message", [
    ((1,), {}, "missing required argument 'display'"),
    ((), {"display": "a"}, "missing required argument 'id'"),
    ((1, "a"), {"colour": 2}, "unexpected keyword argument 'colour'"),
    ((1,), {"display": "a", "colour": 2}, "unexpected keyword argument 'colour'"),
    ((1, "a"), {"id": 1}, "multiple values for argument 'id'"),
    ((1, "a", 2), {}, "takes 2 positional arguments but 3 were given"),
])
def test_construction_errors(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        ObjectLabel(*args, **kwargs)


def test_frozen_records_refuse_assignment_and_deletion():
    label = ObjectLabel(1, "1/2")
    with pytest.raises(AttributeError, match="frozen ObjectLabel"):
        label.id = 2
    with pytest.raises(AttributeError, match="frozen ObjectLabel"):
        del label.display
    with pytest.raises(AttributeError):
        label.colour = "red"
    assert label == ObjectLabel(1, "1/2")


def test_equality_and_hash_are_field_wise():
    a, b = ObjectLabel(1, "1/2"), ObjectLabel(1, "1/2")
    assert a == b and a is not b and hash(a) == hash(b)
    assert hash(a) == hash((1, "1/2"))          # the hash a generated dataclass gives
    assert a != ObjectLabel(2, "1/2") and a != (1, "1/2")
    assert len({a, b, ObjectLabel(2, "1")}) == 2
    # equal fields of another record class are not equal
    assert CycleCheck((), (), 0.0, 1) != bx.ClassifyRow(0, 1, "X", 0, 0, 0)


def test_mutable_records_are_unhashable_and_assignable():
    cat = bx.build_su2k(2)
    with pytest.raises(TypeError, match="unhashable"):
        hash(cat)
    rep = bx.VerificationReport("r")
    rep.seed = 5
    assert rep.seed == 5
    with pytest.raises(TypeError, match="unhashable"):
        hash(rep)


def test_each_instance_gets_fresh_factory_defaults():
    one, two = bx.VerificationReport("a"), bx.VerificationReport("b")
    assert one.checks == two.checks == [] and one.checks is not two.checks
    assert one.params is not two.params and one.notes is not two.notes
    one.add("x", 0.0, 1.0)
    assert two.checks == [] and one.checks[0].details == {}
    assert bx.CheckResult("x", 0.0, 1.0).details is not bx.CheckResult("y", 0.0, 1.0).details
    # the factory is no class attribute; a plain default is
    assert not hasattr(bx.VerificationReport, "checks") and bx.VerificationReport.seed is None


def test_replace_keeps_the_fields_it_is_not_given():
    cat = bx.build_su2k(3)
    other = cat.replace(f=None, notes=("a note",))
    assert other is not cat and other.f is None and other.notes == ("a note",)
    assert (other.name, other.labels, other.twists, other.rules) == \
        (cat.name, cat.labels, cat.twists, cat.rules)
    assert cat.f is not None and cat.notes == ()
    label = ObjectLabel(1, "1/2")
    assert label.replace(display="x") == ObjectLabel(1, "x") and label.replace() == label
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        label.replace(colour="red")


def test_cached_property_works_on_a_frozen_record():
    dims = QuantumDims((1.0, 2.0))
    d = dims.d
    assert d.tolist() == [1.0, 2.0] and dims.d is d
    assert dims == QuantumDims((1.0, 2.0))      # the cached value is not a field

