"""The immutable records (rootdata._Record): which fields equality and hash
read, immutability, repr and cached properties."""

import pytest

from weylkit.charring import monomial
from weylkit.covers import CoverDatum, build_cover
from weylkit.hecke import OpAtom, OpExpr
from weylkit.repring import SteinbergBasis, steinberg_basis
from weylkit.rootdata import Root, RootDatum, build_root_datum
from weylkit.weyl import WeylElt, weyl_group

A2 = build_root_datum("A2")
S1 = weyl_group(A2).simple(1)
COVER = build_cover([[2, 1], [0, 3]])
BASIS = steinberg_basis(A2)


def _fields(record, names):
    return {name: getattr(record, name) for name in names}


# class, constructor fields, the fields equality and hash read (None: the
# record equals only itself), cached properties, hashable
CASES = [
    (Root, _fields(A2.positive_roots[2], Root._FIELDS), Root._FIELDS, (), True),
    (RootDatum, _fields(A2, RootDatum._FIELDS), ("rank", "cartan"), ("_simple_columns",), True),
    (WeylElt, _fields(S1, ("key", "word", "columns")), ("key",), (), True),
    (CoverDatum, _fields(COVER, CoverDatum._FIELDS), CoverDatum._FIELDS, ("coset_reps",), True),
    (OpAtom, {"kind": "d", "index": 1, "elt": None}, OpAtom._FIELDS, (), True),
    (OpAtom, {"kind": "m", "index": 0, "elt": monomial((1, 0))}, OpAtom._FIELDS, (), False),
    (OpExpr, {"atoms": (OpAtom("d", 1), OpAtom("w", 2))}, ("atoms",), (), True),
    (SteinbergBasis, _fields(BASIS, SteinbergBasis._FIELDS), None, ("_weight_by_element",), True),
]


@pytest.mark.parametrize(
    "cls, fields, compared, cached, hashable",
    CASES,
    ids=[f"{case[0].__name__}-{n}" for n, case in enumerate(CASES)],
)
def test_record_semantics(monkeypatch, cls, fields, compared, cached, hashable):
    a, b = cls(**fields), cls(**fields)
    assert a == a and a != object() and a != tuple(fields.values())
    if compared is None:
        assert a != b and hash(a) == object.__hash__(a)
    else:
        assert a == b
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)
        for name in fields:
            changed = cls(**{**fields, name: object()})
            if name in compared:
                assert changed != a and a != changed
            else:
                assert changed == a
                if hashable:
                    assert hash(changed) == hash(a)
    for name in (*fields, *cached, "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is fields[name]
    for name in cached:
        prop = vars(cls)[name]
        calls = []
        real = prop.func
        monkeypatch.setattr(prop, "func", lambda record: calls.append(record) or real(record))
        fresh = cls(**fields)
        first = getattr(fresh, name)
        assert getattr(fresh, name) is first and calls == [fresh]


def test_record_repr():
    assert repr(Root((1, 0), (2, -1), (1, 0))) == "Root(root_coords=(1, 0), weight_coords=(2, -1), coroot=(1, 0))"
    assert repr(OpExpr((OpAtom("d", 1),))) == "OpExpr(atoms=(OpAtom(kind='d', index=1, elt=None),))"
    assert repr(weyl_group(A2).longest) == "WeylElt([1, 2, 1])"
