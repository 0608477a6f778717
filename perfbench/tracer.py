"""In-process tracing of heckesym's layers, installed from the benchmark only.

The tracer replaces selected class methods and module functions of the
`heckesym` package with timing wrappers.  Two kinds of wrapper exist:

* a *frame* wrapper for coarse and medium calls (row reduction, upsilon,
  analyze, ...): it keeps a call stack so that every name gets a call count,
  a total time and a self time (its duration minus the time covered by the
  wrapped calls made inside it).  Names listed in `SPAN_NAMES` also leave a
  span record (name, job, start, end, parent span) in memory;
* a *leaf* wrapper for the fine-grained operations that run about a million
  times per pass (scalar arithmetic, `Perm` and `MultiPoly` products): only
  the outermost one is timed, and it is aggregated as a per-job count and
  self time, never as a span.

Statistics are kept per job, in `Tracer.jobs[job_id][name] = [calls, total_s,
self_s]`; the extra counters (matrix cells, ranks, product terms, cache hits)
sit in the same dict under their own names.  Nothing is written until
`Tracer.dump` is called at the end of a run.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# Spans kept as records; every other wrapped name is aggregated only.
SPAN_NAMES = frozenset(
    {
        "job",
        "frobenius.analyze",
        "frobenius.verify_operator_identities",
        "frobenius.trace_table",
        "symmetry.upsilon",
        "symmetry.lambda_dim",
        "heckealg.verify_identities",
        "regular3.conjugacy_report",
        "obstruction.verify_case",
        "obstruction.sylvester_resultant",
    }
)

SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "inverse", "__pow__",
)


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.job = "-"      # work outside any job is booked under "-"
        self.cur = {}       # the current job's dict
        self.jobs = {self.job: self.cur}  # job id -> {name: [calls, total_s, self_s] or counter}
        self.stack = [[0.0]]  # frames: [child_s]; the bottom one is never popped
        self.spans = []     # [name, job, start_s, end_s, parent index]
        self.open_spans = []
        self.in_leaf = False

    # -- recording

    def _stat(self, name):
        st = self.cur.get(name)
        if st is None:
            st = self.cur[name] = [0, 0.0, 0.0]
        return st

    def count(self, name, amount, job_id=None):
        """Adds to a counter of the current job, or of the given one."""
        stats = self.cur if job_id is None else self.jobs[job_id]
        stats[name] = stats.get(name, 0) + amount

    def maximum(self, name, value):
        self.cur[name] = max(self.cur.get(name, 0), value)

    def run_job(self, job_id, fn):
        """Runs fn() as the root span of one job."""
        self.job = job_id
        self.cur = self.jobs.setdefault(job_id, {})
        try:
            return self.frame("job", fn)()
        finally:
            self.job = "-"
            self.cur = self.jobs["-"]

    def frame(self, name, fn, before=None, after=None):
        """Wraps fn with call/total/self accounting, and a span if named in SPAN_NAMES."""
        tracer = self
        is_span = name in SPAN_NAMES

        def wrapped(*args, **kwargs):
            if before:
                before(tracer, args)
            frame = [0.0]
            tracer.stack.append(frame)
            if is_span:
                parent = tracer.open_spans[-1] if tracer.open_spans else -1
                sid = len(tracer.spans)
                tracer.spans.append([name, tracer.job, 0.0, 0.0, parent])
                tracer.open_spans.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                dur = end - start
                st = tracer._stat(name)
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                tracer.stack[-1][0] += dur
                if is_span:
                    tracer.open_spans.pop()
                    rec = tracer.spans[sid]
                    rec[2] = start - tracer.t0
                    rec[3] = end - tracer.t0
            if after:
                after(tracer, args, out)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def leaf(self, name_of, fn, after=None):
        """Wraps a fine-grained operation; only the outermost leaf call is counted."""
        tracer = self

        def wrapped(*args):
            if tracer.in_leaf:
                return fn(*args)
            tracer.in_leaf = True
            start = perf_counter()
            try:
                out = fn(*args)
            finally:
                dur = perf_counter() - start
                tracer.in_leaf = False
                st = tracer._stat(name_of(args))
                st[0] += 1
                st[1] += dur
                st[2] += dur
                tracer.stack[-1][0] += dur
            if after:
                after(tracer, args, out)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation

    @staticmethod
    def _patch_method(cls, attr, wrapper):
        setattr(cls, attr, wrapper(cls.__dict__[attr]))

    @staticmethod
    def _patch_function(module, attr, wrapper):
        """Replaces a module function in every heckesym module that bound it by name."""
        orig = getattr(module, attr)
        new = wrapper(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "heckesym" or mod_name.startswith("heckesym."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)

    def install(self):
        """Wraps the layers for the rest of the process; there is no uninstall."""
        from heckesym import (
            exactnum, exprio, frobenius, heckealg, linalg, multipoly,
            obstruction, permgroup, regular3, symmetry,
        )

        def frame(name, before=None, after=None):
            return lambda fn: self.frame(name, fn, before, after)

        def leaf(name_of, after=None):
            return lambda fn: self.leaf(name_of, fn, after)

        scalar_kind = lambda args: "exactnum." + args[0].field.kind
        for op in SCALAR_OPS:
            self._patch_method(exactnum.Scalar, op, leaf(scalar_kind))
        self._patch_method(permgroup.Perm, "__mul__", leaf(lambda args: "permgroup.mul"))

        def poly_terms(tr, args, out):
            other = args[1]
            tr.count("multipoly.mul.terms", len(args[0].terms) * (len(other.terms) if isinstance(other, multipoly.MultiPoly) else 1))

        for op in ("__mul__", "__rmul__"):
            self._patch_method(multipoly.MultiPoly, op, leaf(lambda args: "multipoly.mul", poly_terms))
        self._patch_method(multipoly.MultiPoly, "exact_div", frame("multipoly.exact_div"))

        def hecke_terms(tr, args, out):
            tr.count("heckealg.mul.terms", len(args[0].terms) * len(args[1].terms))

        self._patch_method(heckealg.HeckeElement, "__mul__", frame("heckealg.mul", after=hecke_terms))
        self._patch_method(regular3.ProjectiveElement, "__mul__", frame("regular3.projmul"))

        def rref_size(tr, args, out):
            m = args[0]
            tr.count("linalg.rref.cells", m.rows * m.cols)
            tr.count("linalg.rref.rows", m.rows)
            tr.count("linalg.rref.rank", len(out[1]))

        self._patch_method(linalg.MatrixF, "rref", frame("linalg.rref", after=rref_size))
        self._patch_method(linalg.MatrixF, "__mul__", frame("linalg.matmul"))
        self._patch_method(linalg.MatrixF, "det", frame("linalg.det"))
        self._patch_method(linalg.MatrixF, "kernel", frame("linalg.kernel"))
        self._patch_method(linalg.Subspace, "intersect", frame("linalg.intersect"))

        def upsilon_before(tr, args):
            sym, n = args[0], args[1]
            if n in sym._upsilon:
                tr.count("symmetry.upsilon.hits", 1)
            tr.maximum("symmetry.upsilon.max_ambient", sym.N ** n)

        sym_cls = symmetry.HeckeSymmetry
        self._patch_method(sym_cls, "upsilon", frame("symmetry.upsilon", before=upsilon_before))
        for attr in ("lambda_dim", "apply_generator", "generator_matrix", "perm_matrix", "rep_matrix"):
            self._patch_method(sym_cls, attr, frame("symmetry." + attr))

        for attr in ("analyze", "verify_operator_identities", "trace_table"):
            self._patch_function(frobenius, attr, frame("frobenius." + attr))
        self._patch_function(heckealg, "verify_identities", frame("heckealg.verify_identities"))
        self._patch_function(regular3, "conjugacy_report", frame("regular3.conjugacy_report"))
        for attr in ("verify_case1", "verify_case2", "verify_case3", "verify_case4"):
            self._patch_function(obstruction, attr, frame("obstruction.verify_case"))
        self._patch_function(obstruction, "sylvester_resultant", frame("obstruction.sylvester_resultant"))
        self._patch_function(exprio, "parse_scalar", frame("exprio.parse"))
        self._patch_function(exprio, "format_scalar", frame("exprio.format"))

    # -- results

    def totals(self, job_ids):
        """Sums the per-job statistics of the given jobs into one dict."""
        out = {}
        for job_id in job_ids:
            for name, value in self.jobs.get(job_id, {}).items():
                if isinstance(value, list):
                    acc = out.setdefault(name, [0, 0.0, 0.0])
                    for k in range(3):
                        acc[k] += value[k]
                elif name.endswith("max_ambient"):
                    out[name] = max(out.get(name, 0), value)
                else:
                    out[name] = out.get(name, 0) + value
        return out

    def dump(self, path, meta):
        doc = dict(meta)
        doc["span_fields"] = ["name", "job", "start_s", "end_s", "parent"]
        doc["spans"] = self.spans
        doc["jobs"] = self.jobs
        with open(path, "w") as fh:
            json.dump(doc, fh)
