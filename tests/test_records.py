"""The record contract of psifoc's small data classes: construction and
defaults, equality and hashing, frozen fields, repr, copies."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from psifoc.cli import Command
from psifoc.errors import MixedFieldTags
from psifoc.matrices import EigenMode, ScalarMode
from psifoc.psi import PsiFamily, fibonacci
from psifoc.qhat import DiagOperator
from psifoc.qplane import MonomialMap, OpRealization, Report
from psifoc.ratfunc import Q, RatFunc

_M = MonomialMap((None, (0, 1)))

# class, field values in __init__ order, repr, hashable
CASES = [
    (Command, ("binom", None, "fib", 4, 2) + (None,) * 12 + (True,),
     "Command(verb='binom', subverb=None, family='fib', "
     "n=4, k=2, xval=None, r=None, s=None, j=None, size=None, maxdeg=None, "
     "power=None, eigen=None, qfield=None, x0=None, fmt=None, out=None, "
     "pretty=True)", True),
    (PsiFamily, ("gauss", Fraction(1, 2), None),
     "PsiFamily(kind='gauss', q0=Fraction(1, 2), table=None)", True),
    (DiagOperator, ((1, Fraction(1, 2), Q),), "DiagOperator([1, 1/2, q])",
     True),
    (ScalarMode, (Q,), "ScalarMode(t=RatFunc(q))", True),
    (EigenMode, (fibonacci(), 3),
     "EigenMode(family=PsiFamily(kind='fibonacci', q0=None, table=None), "
     "degree=3)", True),
    (Report, ({"check": "x"}, [{"degree": 1}]),
     "Report(params={'check': 'x'}, mismatches=[{'degree': 1}])", False),
    (MonomialMap, (((1, Fraction(1, 2)), None, (0, Q)),),
     "MonomialMap(images=((1, Fraction(1, 2)), None, (0, RatFunc(q))))",
     True),
    (OpRealization, (1, ((0, 0), (1, 0)), _M, _M),
     "OpRealization(n=1, basis=((0, 0), (1, 0)), "
     "a=MonomialMap(images=(None, (0, 1))), "
     "b=MonomialMap(images=(None, (0, 1))))", True),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, values, text, hashable", CASES, ids=IDS)
def test_construction_equality_repr(cls, values, text, hashable):
    names = list(inspect.signature(cls).parameters)
    assert names == list(cls.__slots__)
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert [getattr(positional, name) for name in names] == list(values)
    assert positional == keyword and not positional != keyword
    assert repr(positional) == text
    if hashable:
        assert hash(positional) == hash(keyword)
        assert len({positional, keyword}) == 1
    else:
        with pytest.raises(TypeError):
            hash(positional)
    # equal fields in another class, even a subclass, are not equal
    sub = type("Sub", (cls,), {})(*values)
    assert positional != sub and sub != positional
    assert positional != tuple(values)
    assert copy.copy(positional) == positional
    assert pickle.loads(pickle.dumps(positional)) == positional


@pytest.mark.parametrize("cls, values, text, hashable",
                         [case for case in CASES if case[0] is not Report],
                         ids=[name for name in IDS if name != "Report"])
def test_frozen(cls, values, text, hashable):
    record = cls(*values)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert [getattr(record, name) for name in cls.__slots__] == list(values)


def test_defaults():
    cmd = Command("fact")
    assert cmd.verb == "fact" and cmd.pretty is False
    assert all(getattr(cmd, name) is None for name in Command.__slots__[1:-1])
    fam = PsiFamily("classical")
    assert (fam.q0, fam.table) == (None, None)


def test_report_mismatches_are_fresh_and_mutable():
    first, second = Report({"check": "a"}), Report(params={"check": "a"})
    assert first.mismatches == [] and first == second
    first.mismatches.append({"degree": 0})
    assert second.mismatches == [] and first != second
    first.params = {}
    assert first.params == {}


def test_construction_checks():
    with pytest.raises(TypeError):
        PsiFamily("gauss", q0=Q)
    with pytest.raises(TypeError):
        PsiFamily("gauss", q0=2.0)
    with pytest.raises(MixedFieldTags):
        PsiFamily("custom", table=[1, RatFunc([0, 1])])
    fam = PsiFamily("custom", table=[Fraction(4, 2), 3])
    assert fam.table == (2, 3) and type(fam.table[0]) is int
    assert PsiFamily("gauss", Fraction(6, 3)).q0 == 2
    with pytest.raises(TypeError):
        DiagOperator((1, 0.5))
    with pytest.raises(TypeError):
        MonomialMap((None, (0, 0.5)))
    with pytest.raises(TypeError):
        ScalarMode(True)
