"""The plain value classes behave as the frozen dataclasses they replaced
(tests/values_oracle.py): the same fields after normalisation, the same
errors, equality, hash, str, repr and sort order, and no assignment."""

import pickle
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import values_oracle as oracle
from surgeryforge.families import CensusEntry
from surgeryforge.lens import LensSpace
from surgeryforge.normseq import Pow2
from surgeryforge.pentangle import P5Filling
from surgeryforge.rationals import ExtRational
from surgeryforge.simpleknot import SimpleKnot
from surgeryforge.tangle import MontesinosLink

NEW = types.SimpleNamespace(**{cls.__name__: cls for cls in (
    ExtRational, LensSpace, MontesinosLink, Pow2, SimpleKnot, P5Filling,
    CensusEntry)})


class Make:
    """A constructor call, made the same way against either implementation:
    arguments that are themselves Make (or tuples of them) are built first."""

    def __init__(self, cls, *args, **kwargs):
        self.cls, self.args, self.kwargs = cls, args, kwargs

    def __repr__(self):
        parts = [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.kwargs.items()]
        return f"{self.cls}({', '.join(parts)})"


def build(impl, spec):
    if isinstance(spec, Make):
        return getattr(impl, spec.cls)(
            *(build(impl, a) for a in spec.args),
            **{k: build(impl, v) for k, v in spec.kwargs.items()})
    if isinstance(spec, tuple):
        return tuple(build(impl, a) for a in spec)
    return spec


def outcome(impl, spec):
    try:
        return build(impl, spec), None
    except (ValueError, TypeError) as exc:
        return None, (type(exc), str(exc))


small = st.integers(-7, 7)
slope = st.builds(lambda n, d: Make("ExtRational", n, d), small, small)
lens = st.builds(lambda p, q: Make("LensSpace", p, q), small, small)
KINDS = (
    slope,
    st.builds(lambda n: Make("ExtRational", n), small),
    st.builds(lambda n, d: Make("ExtRational", num=n, den=d), small, small),
    lens,
    st.builds(lambda fs: Make("MontesinosLink", tuple(fs)),
              st.lists(st.one_of(slope, slope, small), min_size=3,
                       max_size=3)),
    st.builds(lambda t: Make("Pow2", t), st.integers(-3, 4)),
    st.builds(lambda p, q, k: Make("SimpleKnot", p, q, k),
              st.integers(-1, 9), small, st.integers(-1, 10)),
    st.builds(lambda s: Make("P5Filling", *s), st.lists(slope, min_size=4,
                                                        max_size=5)),
    st.builds(lambda s: Make("P5Filling", nw=s[0], ne=s[1], sw=s[2],
                             se=s[3]),
              st.lists(slope, min_size=4, max_size=4)),
    st.builds(lambda p, q, k: Make("CensusEntry", p, q, k),
              small, small, small))
values = st.one_of(KINDS)


def check_same(spec, other_spec):
    new, new_err = outcome(NEW, spec)
    old, old_err = outcome(oracle, spec)
    assert new_err == old_err, spec
    if new_err:
        return
    assert new.__slots__ == old.__slots__
    assert [repr(getattr(new, name)) for name in new.__slots__] == \
        [repr(getattr(old, name)) for name in old.__slots__]
    assert repr(new) == repr(old)
    assert str(new) == str(old)
    assert hash(new) == hash(old)
    fields = tuple(getattr(new, name) for name in new.__slots__)
    assert new.__eq__(fields) is old.__eq__(fields) is NotImplemented
    assert new != fields and old != fields
    assert pickle.loads(pickle.dumps(new)) == new
    for name in new.__slots__:
        for attempt in (lambda x: setattr(x, name, 0),
                        lambda x: delattr(x, name)):
            with pytest.raises(AttributeError) as new_exc:
                attempt(new)
            with pytest.raises(AttributeError) as old_exc:
                attempt(old)
            assert str(new_exc.value) == str(old_exc.value)
    new_other, _ = outcome(NEW, other_spec)
    old_other, _ = outcome(oracle, other_spec)
    if new_other is not None:
        assert (new == new_other) is (old == old_other)
        assert (new != new_other) is (old != old_other)


@settings(max_examples=600)
@given(data=st.data())
def test_values_match_dataclass_oracle(data):
    kind = data.draw(st.sampled_from(KINDS))
    spec = data.draw(kind)
    # equal pairs, pairs of one class and pairs of two classes
    check_same(spec, data.draw(st.one_of(st.just(spec), kind, values)))


@pytest.mark.parametrize("spec", [
    Make("ExtRational", 0, 0),
    Make("LensSpace", 4, 2),
    Make("LensSpace", 0, 0),
    Make("Pow2", -2),
    Make("SimpleKnot", 1, 0, 0),
    Make("SimpleKnot", 6, 3, 1),
    Make("SimpleKnot", 7, 3, 7),
    Make("MontesinosLink", (1, Make("ExtRational", 1, 2), 3))], ids=repr)
def test_bad_fields_raise_as_the_oracle(spec):
    assert outcome(NEW, spec)[1] is not None
    check_same(spec, spec)


@settings(max_examples=100)
@given(st.lists(st.tuples(small, small, small), max_size=12))
def test_census_entries_sort_as_the_oracle(triples):
    new = sorted(CensusEntry(*t) for t in triples)
    old = sorted(oracle.CensusEntry(*t) for t in triples)
    assert [repr(e) for e in new] == [repr(e) for e in old]
