"""Outside-in span recorder for the clawgenus layers.

``install()`` wraps, from outside the package, every public function of the
layer modules plus a few hot methods, and records one span per call: name,
start, end and the index of the enclosing span.  Spans stay in memory until
``summary()`` folds them into per-name call counts, inclusive time and self
time (span time minus the time of its direct child spans), and
``write_spans()`` dumps them as TSV.

Three things about the package shape the patching:

* ``cli`` and ``rootcert`` hold their own references to functions imported
  with ``from .x import y``; every such reference in every clawgenus module
  is replaced by the wrapper, not only the original attribute.
* ``clawgenus.pgd`` is the ``pgd`` function (the package re-exports it over
  the submodule), so modules are looked up in ``sys.modules``.
* Sturm chains are dropped when ``cmd_certify`` returns, so their
  coefficient sizes are read in a hook around ``SturmChain.__init__``.

Hooks that read results (cache hits, bit sizes, worker CPU) run outside the
span they describe, so the span times only the wrapped call itself.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time
from fractions import Fraction

LAYERS = ("cli", "rootcert", "polynomials", "formulas", "pgd", "oracle")

#: Methods traced in addition to each layer's public functions:
#: (span name, module, class, attribute names sharing the span).
METHODS = (
    ("polynomials.sign_at", "polynomials", "IntPoly", ("sign_at",)),
    ("polynomials.Sqrt3Poly.mul", "polynomials", "Sqrt3Poly", ("__mul__", "__rmul__")),
    ("rootcert.SturmChain", "rootcert", "SturmChain", ("__init__",)),
    ("rootcert.variations", "rootcert", "SturmChain", ("variations",)),
)


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.names: list[str] = []
        # [name id, start, end, parent span index]; -1 marks the root
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.counters = {
            "variations_hits": 0,
            "coeff_bits_max": 0,
            "interval_den_bits_max": 0,
            "undecided": 0,
            "systems": 0,
            "worker_cpu_s": 0.0,
        }

    def span(self, name: str, fn):
        """Wrap fn so that each call records one span named ``name``."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [nid, clock(), 0.0, stack[-1]]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        stats = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for nid, start, end, parent in self.spans:
            dur = end - start
            s = stats[self.names[nid]]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur
            if parent >= 0:
                stats[self.names[self.spans[parent][0]]]["self_s"] -= dur
        return {"spans": stats, "counters": dict(self.counters)}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tname\tstart\tend\tparent\n")
            for i, (nid, start, end, parent) in enumerate(self.spans):
                f.write(f"{i}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _den_bits(intervals) -> int:
    return max(
        (max(iv.lo.denominator.bit_length(), iv.hi.denominator.bit_length())
         for iv in intervals),
        default=0,
    )


def _hooked(rec: Recorder, name: str, traced):
    """Add the counter hook for ``name``, if it has one, around the span."""
    c = rec.counters
    if name == "rootcert.variations":
        def variations(chain, x):
            key = x if isinstance(x, Fraction) else Fraction(x)
            if key in chain._cache:
                c["variations_hits"] += 1
            return traced(chain, x)
        return functools.wraps(traced)(variations)
    if name == "rootcert.SturmChain":
        def init(chain, p):
            traced(chain, p)
            bits = max(abs(x).bit_length() for q in chain.polys for x in q.coeffs)
            c["coeff_bits_max"] = max(c["coeff_bits_max"], bits)
        return functools.wraps(traced)(init)
    if name == "rootcert.isolate_roots":
        def isolate(*args, **kwargs):
            cert = traced(*args, **kwargs)
            c["interval_den_bits_max"] = max(
                c["interval_den_bits_max"], _den_bits(cert.intervals)
            )
            return cert
        return functools.wraps(traced)(isolate)
    if name == "rootcert.certify_interlacing":
        undecided = sys.modules["clawgenus.errors"].InterlacingUndecided

        def interlacing(*args, **kwargs):
            try:
                cert = traced(*args, **kwargs)
            except undecided:
                c["undecided"] += 1
                raise
            c["interval_den_bits_max"] = max(
                c["interval_den_bits_max"], _den_bits(iv for _, iv in cert.merged)
            )
            return cert
        return functools.wraps(traced)(interlacing)
    if name == "oracle.enumerate_pgd":
        def enumerate_pgd(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            out = traced(*args, **kwargs)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            c["worker_cpu_s"] += (after.ru_utime - before.ru_utime) + (
                after.ru_stime - before.ru_stime
            )
            c["systems"] += out.embedding_count()
            return out
        return functools.wraps(traced)(enumerate_pgd)
    return traced


def install() -> Recorder:
    """Wrap every layer of the imported clawgenus package; return the recorder."""
    rec = Recorder()
    replaced: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"clawgenus.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
                or inspect.isgeneratorfunction(obj)
            ):
                continue
            name = f"{layer}.{attr}"
            replaced[id(obj)] = _hooked(rec, name, rec.span(name, obj))
    for name, layer, cls_name, attrs in METHODS:
        cls = getattr(sys.modules[f"clawgenus.{layer}"], cls_name)
        fn = getattr(cls, attrs[0])
        wrapped = _hooked(rec, name, rec.span(name, fn))
        for attr in attrs:
            setattr(cls, attr, wrapped)
    # Rebind every module-level reference, originals and `from .x import y`
    # copies alike.
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "clawgenus" and not mod_name.startswith("clawgenus."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    return rec
