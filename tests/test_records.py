"""The package's value records: what each holds and how it behaves.

Ten are ``NamedTuple``s: immutable, compared and hashed as the tuple of
their fields (so one equals a plain tuple of the same values), rebuilt with
``_replace``.  ``RootCertificate`` and ``Sqrt3Poly`` are slotted classes
with their own constructors: a certificate takes a weak reference, and an
element of Z[sqrt 3] is no tuple, so ``*`` by an int and ``+`` with a tuple
raise instead of repeating or concatenating.  The reprs are pinned as
literals: ``field=value`` in field order, as they have always printed.
"""

import pickle
import weakref
from inspect import Parameter, signature

import pytest

from clawgenus.formulas import GenusPolynomial, StructureReport
from clawgenus.oracle import OraclePgd, RotationSystem
from clawgenus.pgd import PgdVector
from clawgenus.polynomials import IntPoly, Sqrt3Poly
from clawgenus.rootcert import (
    ConcavityReport,
    InterlacingCertificate,
    Interval,
    NormalizedPoly,
    RootCertificate,
    SignPatternReport,
)

P = IntPoly
EMPTY = Parameter.empty

#: One instance of each record, its repr, and its fields with their defaults.
RECORDS = [
    (NormalizedPoly(1, P((2, 2))),
     "NormalizedPoly(n=1, w=IntPoly([2, 2]))",
     {"n": EMPTY, "w": EMPTY}),
    (Interval(-3, 1, 2),
     "Interval(a=-3, b=1, k=2)",
     {"a": EMPTY, "b": EMPTY, "k": EMPTY}),
    (RootCertificate(0, (Interval(-2, 0, 0),), P((2, 2))),
     "RootCertificate(n=0, intervals=(Interval(a=-2, b=0, k=0),), poly=IntPoly([2, 2]))",
     {"n": EMPTY, "intervals": EMPTY, "poly": EMPTY}),
    (InterlacingCertificate(2, 1, ((2, Interval(-3, -2, 1)), (1, Interval(-2, 0, 1)))),
     "InterlacingCertificate(n=2, m=1, merged=((2, Interval(a=-3, b=-2, k=1)), "
     "(1, Interval(a=-2, b=0, k=1))))",
     {"n": EMPTY, "m": EMPTY, "merged": EMPTY}),
    (SignPatternReport(2, 1, True, True, False, "sign of q at root 1 of p"),
     "SignPatternReport(p_index=2, q_index=1, hypothesis_ok=True, p_signs_ok=True, "
     "q_signs_ok=False, first_failure='sign of q at root 1 of p')",
     dict.fromkeys(["p_index", "q_index", "hypothesis_ok", "p_signs_ok", "q_signs_ok",
                    "first_failure"], EMPTY)),
    (ConcavityReport(3, True, False, True, True, None),
     "ConcavityReport(n=3, log_concave=True, all_strict=False, unimodal=True, "
     "no_internal_zeros=True, first_failure=None)",
     dict.fromkeys(["n", "log_concave", "all_strict", "unimodal", "no_internal_zeros",
                    "first_failure"], EMPTY)),
    (GenusPolynomial(0, P((2, 2))),
     "GenusPolynomial(n=0, poly=IntPoly([2, 2]))",
     {"n": EMPTY, "poly": EMPTY}),
    (StructureReport(4, None),
     "StructureReport(n=4, first_failure=None)",
     {"n": EMPTY, "first_failure": EMPTY}),
    (PgdVector(P((2,)), P(), P((0, 2)), 0),
     "PgdVector(a=IntPoly([2]), b=IntPoly([]), c=IntPoly([0, 2]), n=0)",
     dict.fromkeys("abcn", EMPTY)),
    (RotationSystem(((0, 2, 4), (1, 3, 5))),
     "RotationSystem(orders=((0, 2, 4), (1, 3, 5)))",
     {"orders": EMPTY}),
    (OraclePgd(0, ((2,), (), (0, 2))),
     "OraclePgd(n=0, tallies=((2,), (), (0, 2)))",
     {"n": EMPTY, "tallies": EMPTY}),
    (Sqrt3Poly(P((1, 2)), P((0, 3))),
     "Sqrt3Poly(rat=IntPoly([1, 2]), irr=IntPoly([0, 3]))",
     {"rat": P(), "irr": P()}),
]
NOT_TUPLES = (RootCertificate, Sqrt3Poly)

by_type = pytest.mark.parametrize(
    "record, text, fields", RECORDS, ids=[type(r).__name__ for r, _, _ in RECORDS])


def test_every_record_is_pinned():
    assert len({type(r) for r, _, _ in RECORDS}) == 12


@by_type
def test_fields_in_order_with_their_defaults(record, text, fields):
    params = signature(type(record)).parameters.values()
    assert [(p.name, p.default) for p in params] == list(fields.items())
    if not isinstance(record, NOT_TUPLES):
        assert type(record)._fields == tuple(fields)
        assert type(record)._field_defaults == {}


@by_type
def test_repr(record, text, fields):
    assert repr(record) == text


@by_type
def test_equal_values_are_equal_and_hash_alike(record, text, fields):
    twin = type(record)(*(getattr(record, f) for f in fields))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert record != object()
    assert pickle.loads(pickle.dumps(record)) == record


@by_type
def test_fields_cannot_be_assigned(record, text, fields):
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@by_type
def test_tuple_records_equal_the_plain_tuple(record, text, fields):
    values = tuple(getattr(record, f) for f in fields)
    if isinstance(record, NOT_TUPLES):
        assert not isinstance(record, tuple) and record != values
    else:
        assert record == values and record._replace() == record


def test_a_certificate_takes_a_weak_reference():
    cert = RootCertificate(0, (), P((1, 1)))
    assert weakref.ref(cert)() is cert


def test_a_certificate_differs_from_one_of_another_polynomial():
    cert = RootCertificate(0, (Interval(-2, 0, 0),), P((2, 2)))
    assert cert != RootCertificate(0, cert.intervals, P((3, 3)))


def test_sqrt3_poly_does_not_repeat_or_concatenate():
    with pytest.raises(TypeError):
        3 * Sqrt3Poly()
    with pytest.raises(TypeError):
        Sqrt3Poly() * 3
    with pytest.raises(TypeError):
        (1,) + Sqrt3Poly()
    with pytest.raises(TypeError):
        Sqrt3Poly() + (1,)
