"""An independent check of ``certify --format json`` rows.

It recomputes each W_n with ``normalized_recurrence`` and reads every sign
by its own integer Horner evaluation, so it shares none of the search's
bisection, halving or merging code.  A row passes when:

* its root intervals are sorted and disjoint, each (lo, hi] has w(hi) = 0
  or a sign change from just right of lo to hi, and there are deg w of
  them, which proves w real-rooted with one simple root per interval.  The
  sign just right of lo is w(lo)'s, or w'(lo)'s where lo is itself a root;
  an interval is rejected where both are 0;
* its interlacing entries are sorted and disjoint, each passes that sign
  test for its owner, the owners alternate starting with n, and each owner
  has as many entries as its degree, which proves strict interlacing.
"""

from fractions import Fraction

from clawgenus.rootcert import normalized_recurrence


def _sign(coeffs: tuple[int, ...], num: int, den: int) -> int:
    """Sign of w(num/den) for den > 0: Horner on den^deg * w(num/den)."""
    acc, scale = coeffs[-1], den
    for c in reversed(coeffs[:-1]):
        acc, scale = acc * num + c * scale, scale * den
    return (acc > 0) - (acc < 0)


def _layout_errors(where: str, quads) -> list[str]:
    """Each [lo_num, lo_den, hi_num, hi_den] must end at or below the next's lo."""
    ends = [(Fraction(a, b), Fraction(c, d)) for a, b, c, d in quads]
    if any(hi > lo for (_, hi), (lo, _) in zip(ends, ends[1:])):
        return [f"{where}: intervals overlap or are out of order"]
    return []


def _root_errors(where: str, coeffs, quads) -> list[str]:
    """Each (lo, hi] must hold a root of w by the intermediate value theorem.

    Where w(lo) = 0 and w'(lo) != 0, w has the sign of w'(lo) on some
    (lo, lo + e), which stands in for the sign at lo."""
    slope = tuple(i * c for i, c in enumerate(coeffs))[1:] or (0,)
    errors = []
    for a, b, c, d in quads:
        after_lo = _sign(coeffs, a, b) or _sign(slope, a, b)
        at_hi = _sign(coeffs, c, d)
        if not Fraction(a, b) < Fraction(c, d) or after_lo == 0 or at_hi == after_lo:
            errors.append(f"{where}: no certified root in {[a, b, c, d]}")
    return errors


def certificate_errors(rows: list[dict]) -> list[str]:
    """Every reason the rows fail to certify their claims; empty if none."""
    polys: dict[int, tuple[int, ...]] = {}

    def w(n: int) -> tuple[int, ...]:
        if n not in polys:
            polys[n] = tuple(normalized_recurrence(n).w.coeffs)
        return polys[n]

    errors = []
    for row in rows:
        errors += root_errors(row, w) + interlacing_errors(row, w)
    return errors


def root_errors(row: dict, w) -> list[str]:
    """Every reason a row's root certificate fails to certify w(n) real-rooted,
    w(n) being the coefficients, constant first, of the polynomial at n."""
    n, rc = row["n"], row["root_certificate"]
    quads, where, coeffs = rc["intervals"], f"n={n} roots", w(n)
    errors = _layout_errors(where, quads) + _root_errors(where, coeffs, quads)
    if not rc["complete"] or len(quads) != rc["degree"] or len(quads) != len(coeffs) - 1:
        errors.append(f"{where}: {len(quads)} intervals for degree {len(coeffs) - 1}")
    return errors


def interlacing_errors(row: dict, w) -> list[str]:
    """Every reason a row's interlacing entries fail to certify their claims,
    w(n) being the coefficients, constant first, of the polynomial at n."""
    errors, n = [], row["n"]
    for mode, gap in (("consecutive", 1), ("skip", 2)):
        ic, m, where = row["interlacing"][mode], n - gap, f"n={n} {mode}"
        if ic is None:
            if row["summary"][f"interlace_{mode}"]:
                errors.append(f"{where}: claimed with no certificate")
            continue
        if (ic["n"], ic["m"], ic["mode"]) != (n, m, mode):
            errors.append(f"{where}: wrong pair")
        owners = [e["index"] for e in ic["merged"]]
        quads = [e["interval"] for e in ic["merged"]]
        if owners != [(n, m)[k % 2] for k in range(len(owners))]:
            errors.append(f"{where}: owners do not alternate from {n}")
        errors += _layout_errors(where, quads)
        for idx in (n, m):
            own = [q for q, o in zip(quads, owners) if o == idx]
            errors += _root_errors(where, w(idx), own)
            if len(own) != len(w(idx)) - 1:
                errors.append(f"{where}: {len(own)} roots of W_{idx}")
    return errors
