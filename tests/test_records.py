"""The package's value records: what each holds and how it behaves.

Eleven are ``NamedTuple``s: immutable, compared and hashed as the tuple of
their fields (so one equals a plain tuple of the same values), rebuilt with
``_replace``.  ``Sqrt3Poly`` is a slotted class with its own constructor:
an element of Z[sqrt 3] is no tuple, so ``*`` by an int and ``+`` with a
tuple raise instead of repeating or concatenating.  The reprs are pinned as
literals: ``field=value`` in field order, as they have always printed.
The names the package exports are pinned here too.
"""

import pickle
from inspect import Parameter, signature
from types import ModuleType

import pytest

import clawgenus
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
    (ConcavityReport(3, True, True, False),
     "ConcavityReport(n=3, log_concave=True, unimodal=True, no_internal_zeros=False)",
     dict.fromkeys(["n", "log_concave", "unimodal", "no_internal_zeros"], EMPTY)),
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
NOT_TUPLES = (Sqrt3Poly,)

by_type = pytest.mark.parametrize(
    "record, text, fields", RECORDS, ids=[type(r).__name__ for r, _, _ in RECORDS])


def test_every_record_is_pinned():
    assert len({type(r) for r, _, _ in RECORDS}) == 12


def test_every_public_name_is_pinned():
    """A name joins or leaves ``clawgenus`` on purpose, never by accident.
    The submodules it loads are left out."""
    names = {name for name, value in vars(clawgenus).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert names == {
        # errors
        "ClawgenusError", "ConsistencyError", "FormulaIntegrityError",
        "InterlacingUndecided", "OracleCapExceeded", "StructureViolation",
        # formulas
        "GenusPolynomial", "StructureReport", "composition_sum", "genus_explicit",
        "genus_from_series", "genus_recurrence", "leading_coefficient",
        "structure_check", "verify_series_closed_form",
        # oracle
        "MultiGraph", "OraclePgd", "RotationSystem", "build_iterated_claw",
        "enumerate_pgd", "face_trace", "root_class",
        # pgd
        "PRODUCTION_MATRIX", "PgdVector", "column_sum", "initial_pgd",
        "newclaw_step", "pgd",
        # polynomials
        "IntPoly", "Sqrt3Poly",
        # rootcert
        "ConcavityReport", "InterlacingCertificate", "Interval", "NormalizedPoly",
        "RootCertificate", "SignPatternReport", "SturmChain", "certificate_chain",
        "certify_interlacing", "concavity_report", "is_squarefree", "isolate_roots",
        "normalize", "normalized_recurrence", "sign_pattern_check",
    }


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
    with pytest.raises(AttributeError):
        delattr(record, name)


@by_type
def test_tuple_records_equal_the_plain_tuple(record, text, fields):
    values = tuple(getattr(record, f) for f in fields)
    if isinstance(record, NOT_TUPLES):
        assert not isinstance(record, tuple) and record != values
    else:
        assert record == values and record._replace() == record


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
