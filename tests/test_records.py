"""The contract every immutable record of the package keeps: equality and
hashing follow the fields, ``hash(x)`` equals the hash of the tuple of its
fields (set iteration order, and every output that follows it, depends on
that), fields can be neither assigned nor deleted, construction works by
position and by keyword with the declared defaults, and the repr names the
fields."""

import pytest

from escalier.barcode import BarCode
from escalier.bijections import IdealListing, ListedIdeal
from escalier.counting import BarListCensus, CensusRow, ShapeCount
from escalier.monomials import MonomialIdeal, OrderIdeal, Term
from escalier.oracle import ConjectureReport, EscalierEnumeration, ProbeRow
from escalier.partitions import PlanePartition, SolidPartition
from escalier.starset import StarSet

UNIT = OrderIdeal(frozenset({Term((0, 0))}), 2)
X1 = MonomialIdeal(frozenset({Term((1,))}), 1)
AXES = MonomialIdeal(frozenset({Term((1, 0)), Term((0, 1))}), 2)
ROW = ProbeRow((1,), 1, 1)

# class, fields by keyword, the fields of an unequal record, defaults left
# out of the first, and the repr of the first
CASES = [
    (Term, dict(exponents=(1, 0)), dict(exponents=(0, 1)), {},
     "Term((1, 0))"),
    (OrderIdeal, dict(terms=frozenset({Term((0, 0))}), n=2),
     dict(terms=frozenset({Term((0,))}), n=1), {},
     "OrderIdeal(terms=frozenset({Term((0, 0))}), n=2)"),
    (MonomialIdeal, dict(generators=frozenset({Term((1,))}), n=1),
     dict(generators=frozenset({Term((2,))}), n=1), {},
     "MonomialIdeal(generators=frozenset({Term((1,))}), n=1)"),
    (BarCode, dict(rows=((1, 1), (2,))), dict(rows=((1, 1), (1, 1))), {},
     "BarCode(rows=((1, 1), (2,)))"),
    (PlanePartition, dict(shape=(2,), rows=((2, 1),), c=1, d=1),
     dict(shape=(2,), rows=((2, 1),), c=1, d=0, shifted=True), dict(shifted=False, inner=()),
     "PlanePartition(shape=(2,), rows=((2, 1),), c=1, d=1, shifted=False, inner=(0,))"),
    (SolidPartition, dict(kind="strict", layers=(((1,),),)),
     dict(kind="shifted", layers=(((1,),),)), dict(dimension=3),
     "SolidPartition(kind='strict', layers=(((1,),),), dimension=3)"),
    (ShapeCount, dict(shape=(1,), count=1), dict(shape=(1,), count=2), {},
     "ShapeCount(shape=(1,), count=1)"),
    (CensusRow, dict(bar_list=(3, 1), shapes=(ShapeCount((1,), 1),), subtotal=1),
     dict(bar_list=(3, 1), shapes=(), subtotal=0), {},
     "CensusRow(bar_list=(3, 1), shapes=(ShapeCount(shape=(1,), count=1),), subtotal=1)"),
    (BarListCensus, dict(p=1, n=2, kind="stable", rows=()),
     dict(p=1, n=3, kind="stable", rows=()), {},
     "BarListCensus(p=1, n=2, kind='stable', rows=())"),
    (ListedIdeal, dict(partition=(1,), barcode=BarCode(((1,), (1,))), ideal=X1),
     dict(partition=(2,), barcode=BarCode(((1,), (1,))), ideal=X1), {},
     "ListedIdeal(partition=(1,), barcode=BarCode(rows=((1,), (1,))), "
     "ideal=MonomialIdeal(generators=frozenset({Term((1,))}), n=1))"),
    (IdealListing, dict(p=1, n=2, kind="stable"), dict(p=2, n=2, kind="stable"), {},
     "IdealListing(p=1, n=2, kind='stable')"),
    (EscalierEnumeration, dict(n=2, p=1, items=(UNIT,), generators=(AXES,)),
     dict(n=2, p=1, items=(), generators=()), {},
     "EscalierEnumeration(n=2, p=1, items=(OrderIdeal(terms=frozenset({Term((0, 0))}), n=2),), "
     "generators=(MonomialIdeal(generators=frozenset({Term((0, 1)), Term((1, 0))}), n=2),))"),
    (ProbeRow, dict(bar_list=(1,), ideal_count=1, partition_count=1),
     dict(bar_list=(1,), ideal_count=1, partition_count=2), {},
     "ProbeRow(bar_list=(1,), ideal_count=1, partition_count=1)"),
    (ConjectureReport, dict(p=1, kind="stable", rows=(ROW,)),
     dict(p=1, kind="stable", rows=()), {},
     "ConjectureReport(p=1, kind='stable', rows=(ProbeRow(bar_list=(1,), ideal_count=1, "
     "partition_count=1),))"),
    (StarSet, dict(terms=(Term((1, 0)), Term((0, 1))), source=UNIT),
     dict(terms=(Term((0, 1)), Term((1, 0))), source=UNIT), {},
     "StarSet(terms=(Term((1, 0)), Term((0, 1))), "
     "source=OrderIdeal(terms=frozenset({Term((0, 0))}), n=2))"),
]


@pytest.mark.parametrize("cls, fields, other, defaults, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_contract(cls, fields, other, defaults, text):
    x = cls(**fields)
    y = cls(*fields.values())
    z = cls(**other)
    assert x == y and not x != y and hash(x) == hash(y)
    assert x != z and not x == z
    assert x == cls(**fields, **defaults)
    names = [*fields, *defaults]
    assert hash(x) == hash(tuple(getattr(x, name) for name in names))
    assert x.__eq__(object()) is NotImplemented
    assert len({x, y, z}) == 2
    assert repr(x) == text
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(z, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == y and hash(x) == hash(y)
