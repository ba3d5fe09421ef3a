"""Exact genus polynomials of iterated-claw graphs.

Four independent computation routes (production-matrix iteration, a
three-term recurrence, a generating-function series of the column sums of
the matrix powers, and an explicit closed form over Q(sqrt 3)), a
brute-force embedding oracle, and exact certificates of real-rootedness,
root interlacing and log-concavity.
"""

from .errors import (
    ClawgenusError,
    ConsistencyError,
    FormulaIntegrityError,
    InterlacingUndecided,
    OracleCapExceeded,
    StructureViolation,
)
from .formulas import (
    GenusPolynomial,
    StructureReport,
    composition_sum,
    genus_explicit,
    genus_from_series,
    genus_recurrence,
    leading_coefficient,
    structure_check,
    verify_series_closed_form,
)
from .oracle import (
    MultiGraph,
    OraclePgd,
    RotationSystem,
    build_iterated_claw,
    enumerate_pgd,
    face_trace,
    root_class,
)
from .pgd import (
    PRODUCTION_MATRIX,
    PgdVector,
    column_sum,
    initial_pgd,
    newclaw_step,
    pgd,
)
from .polynomials import IntPoly, Sqrt3Poly
from .rootcert import (
    ConcavityReport,
    InterlacingCertificate,
    Interval,
    NormalizedPoly,
    RootCertificate,
    SturmChain,
    certificate_chain,
    certify_interlacing,
    concavity_report,
    is_squarefree,
    isolate_roots,
    normalize,
    normalized_recurrence,
)

__version__ = "0.1.0"
