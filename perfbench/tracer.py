"""Per-layer tracing from outside the program.

The tracer replaces public functions of ``nstepdet`` with wrappers that
record a span per call: name, start, end, parent span and job id. A name
is wrapped in the namespace where the calling module looks it up, because
``from .x import y`` binds a copy: ``det_bareiss`` is patched in
``nstepdet.construction`` and in ``nstepdet.identities``, not in
``nstepdet.exact_linalg``. ``IntMatrix.from_rows`` and ``from_columns`` are
patched on the class.

Spans live in flat arrays in memory and are written out once, at the end
of the run. A span's self time is its duration minus its child spans and
minus the tracer's own bookkeeping for those children (counter hooks), so
hook cost is not charged to the caller's layer.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import update_wrapper
from time import perf_counter

_VERIFIERS = ("verify_cassini", "verify_catalan", "verify_docagne",
              "verify_vajda", "generalized_docagne")
_MATRIX_BUILDERS = ("cassini_matrix", "docagne_matrix", "vajda_matrix")

# (module the caller looks the name up in, attribute, layer the span counts
#  toward, workload that must reach it, hook on arguments, hook on result)
PATCHES = (
    ("nstepdet.construction", "det_bareiss", "exact_linalg.det_bareiss",
     "prop1-sweep", "_on_det", None),
    ("nstepdet.identities", "det_bareiss", "exact_linalg.det_bareiss",
     "verify-large-r", "_on_det", None),
    ("nstepdet.exact_linalg", "IntMatrix.from_rows", "exact_linalg.from_rows",
     "prop1-sweep", None, None),
    # from_columns builds through from_rows; its own self time (the
    # transposition) counts toward the same layer.
    ("nstepdet.exact_linalg", "IntMatrix.from_columns", "exact_linalg.from_rows",
     "prop1-sweep", None, None),
    ("nstepdet.construction", "select_columns", "exact_linalg.select_columns",
     "prop1-sweep", None, None),
    ("nstepdet.identities", "select_columns", "exact_linalg.select_columns",
     "verify-large-r", None, None),
    ("nstepdet.identities", "terms_range", "nstep_seq.terms_range",
     "verify-large-r", "_on_terms_range", None),
    ("nstepdet.cli", "terms_range", "nstep_seq.terms_range",
     "seq-range", "_on_terms_range", None),
    ("nstepdet.identities", "term", "nstep_seq.term",
     "verify-large-r", "_on_term", None),
    ("nstepdet.nstep_seq", "term_fast", "nstep_seq.term_fast",
     "term-fast", None, "_on_term_fast"),
    ("nstepdet.cli", "check_prop1", "construction.check_prop1",
     "prop1-sweep", None, None),
    ("nstepdet.construction", "build_Q", "construction.build_Q",
     "prop1-sweep", "_on_build_q", None),
    ("nstepdet.construction", "build_P", "construction.build_P",
     "prop1-sweep", None, None),
    ("nstepdet.construction", "extend_columns", "construction.extend_columns",
     "prop1-sweep", "_on_extend", None),
    ("nstepdet.identities", "extend_columns", "construction.extend_columns",
     "verify-large-r", "_on_extend", None),
    ("nstepdet.construction", "minor_by_deletion", "construction.minor_by_deletion",
     "prop1-sweep", None, None),
    *(("nstepdet.cli", name, "identities.verify", "verify-large-r", None, None)
      for name in _VERIFIERS),
    *(("nstepdet.identities", name, "identities.matrix_build", "verify-large-r",
       None, None) for name in _MATRIX_BUILDERS),
    ("nstepdet.cli", "cmd_prop1", "cli.command", "prop1-sweep", None, None),
    ("nstepdet.cli", "cmd_verify", "cli.command", "verify-large-r", None, None),
    ("nstepdet.cli", "cmd_seq", "cli.command", "seq-range", None, None),
    ("nstepdet.cli", "random_matrix", "cli.random_matrix", "prop1-sweep", None, None),
    ("nstepdet.cli", "canonical_json", "cli.canonical_json",
     "prop1-sweep", None, "_on_json"),
)

# Reported statistics per layer, in output order.
LAYER_STATS = {
    "exact_linalg.det_bareiss": ("calls", "self_s", "distinct_frac",
                                 "max_order", "max_entry_bits"),
    "exact_linalg.from_rows": ("calls", "self_s"),
    "exact_linalg.select_columns": ("self_s",),
    "nstep_seq.terms_range": ("calls", "self_s", "indices_walked"),
    "nstep_seq.term": ("calls", "self_s", "indices_walked"),
    "nstep_seq.term_fast": ("calls", "self_s", "max_bits"),
    "construction.check_prop1": ("calls", "self_s"),
    "construction.build_Q": ("calls", "self_s", "distinct_frac"),
    "construction.build_P": ("calls", "self_s"),
    "construction.extend_columns": ("calls", "self_s", "cols_appended"),
    "construction.minor_by_deletion": ("self_s",),
    "identities.verify": ("calls", "self_s"),
    "identities.matrix_build": ("self_s",),
    "cli.command": ("self_s",),
    "cli.random_matrix": ("self_s",),
    "cli.canonical_json": ("self_s", "bytes"),
}

UNITS = {"calls": "count", "self_s": "s", "distinct_frac": "ratio",
         "max_order": "count", "max_entry_bits": "bits", "indices_walked": "count",
         "max_bits": "bits", "cols_appended": "count", "bytes": "bytes"}

JOB = "job"


def point_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self._names = [JOB]
        self._layers = [JOB]
        self._name = array("i")
        self._parent = array("i")
        self._job = array("i")
        self._start = array("d")
        self._end = array("d")
        self._hook_s = array("d")
        self._stack: list[int] = []
        self._job_id = -1
        self._distinct: dict[str, set] = defaultdict(set)
        self.counters: dict[str, int] = defaultdict(int)

    # -- spans ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._job.append(self._job_id)
        self._start.append(0.0)
        self._end.append(0.0)
        self._hook_s.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        self._start[idx] = start
        self._end[idx] = end

    @contextmanager
    def job(self, job_id: int):
        """Root span of one job; per-job distinct counts close with it."""
        self._job_id = job_id
        idx = self._open(0)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, perf_counter())
            for layer, seen in self._distinct.items():
                self.counters[f"{layer}.distinct"] += len(seen)
            self._distinct.clear()

    def _wrap(self, name_id: int, fn, on_call, on_result):
        tracer = self

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = tracer._open(name_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._close(idx, start, end)
            if on_result is not None:
                on_result(result)
            if tracer._stack:
                tracer._hook_s[tracer._stack[-1]] += (
                    start - entered + perf_counter() - end)
            return result

        return update_wrapper(wrapper, fn)

    # -- counter hooks (argument names mirror the wrapped functions) ------

    def _on_det(self, m):
        self._distinct["exact_linalg.det_bareiss"].add(m)
        c = self.counters
        c["exact_linalg.det_bareiss.max_order"] = max(
            c["exact_linalg.det_bareiss.max_order"], m.rows)
        c["exact_linalg.det_bareiss.max_entry_bits"] = max(
            c["exact_linalg.det_bareiss.max_entry_bits"],
            max(e.bit_length() for e in m.entries))

    def _on_build_q(self, n, r, rows):
        key = (n, r, tuple(rows)) if isinstance(rows, (tuple, list, range)) else object()
        self._distinct["construction.build_Q"].add(key)

    def _on_extend(self, a, r):
        self.counters["construction.extend_columns.cols_appended"] += r

    def _on_terms_range(self, n, conv, lo, hi):
        # Indices a walk from the seed block (indices 1..n) covers.
        self.counters["nstep_seq.terms_range.indices_walked"] += max(0, hi) + max(0, 1 - lo)

    def _on_term(self, n, conv, k):
        self.counters["nstep_seq.term.indices_walked"] += (
            k - n if k > n else max(0, 1 - k))

    def _on_term_fast(self, value):
        self.counters["nstep_seq.term_fast.max_bits"] = max(
            self.counters["nstep_seq.term_fast.max_bits"], value.bit_length())

    def _on_json(self, text):
        self.counters["cli.canonical_json.bytes"] += len(text)

    # -- installation ----------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every point in ``PATCHES``; restore the originals on exit."""
        restore = []
        try:
            for module_name, attr, layer, _, on_call, on_result in PATCHES:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                is_static = isinstance(original, staticmethod)
                fn = original.__func__ if is_static else original
                self._names.append(point_name(module_name, attr))
                self._layers.append(layer)
                wrapped = self._wrap(
                    len(self._names) - 1, fn,
                    on_call and getattr(self, on_call),
                    on_result and getattr(self, on_result))
                setattr(owner, leaf, staticmethod(wrapped) if is_static else wrapped)
                restore.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)

    # -- results ---------------------------------------------------------

    def _per_span(self):
        """Yield (name id, self seconds, nested in a span of its own layer)."""
        count = len(self._name)
        child_s = [0.0] * count
        for i in range(count):
            p = self._parent[i]
            if p >= 0:
                child_s[p] += self._end[i] - self._start[i]
        for i in range(count):
            p = self._parent[i]
            name_id = self._name[i]
            nested = p >= 0 and self._layers[self._name[p]] == self._layers[name_id]
            yield (name_id,
                   self._end[i] - self._start[i] - child_s[i] - self._hook_s[i],
                   nested)

    def point_calls(self) -> dict[str, int]:
        """Calls per patch point, keyed ``module.attribute``."""
        calls = dict.fromkeys(self._names[1:], 0)
        for name_id in self._name:
            if name_id:
                calls[self._names[name_id]] += 1
        return calls

    def layer_metrics(self) -> dict[str, dict]:
        """Every statistic in ``LAYER_STATS`` as ``{name: {value, unit}}``.

        ``calls`` counts calls into a layer from outside it, so the
        ``from_rows`` call inside ``from_columns`` counts once.
        """
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for name_id, seconds, nested in self._per_span():
            layer = self._layers[name_id]
            self_s[layer] += seconds
            if not nested:
                calls[layer] += 1
        out = {}
        for layer, stats in LAYER_STATS.items():
            for stat in stats:
                if stat == "calls":
                    value = calls[layer]
                elif stat == "self_s":
                    value = self_s[layer]
                elif stat == "distinct_frac":
                    value = self.counters[f"{layer}.distinct"] / max(calls[layer], 1)
                else:
                    value = self.counters[f"{layer}.{stat}"]
                out[f"{layer}.{stat}"] = {"value": value, "unit": UNITS[stat]}
        return out

    def write_spans(self, path) -> None:
        """Write every span as gzip'd TSV: name, start, end, parent, job."""
        origin = self._start[0] if len(self._start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self._name)):
                fh.write(f"{self._names[self._name[i]]}\t"
                         f"{self._start[i] - origin:.9f}\t{self._end[i] - origin:.9f}\t"
                         f"{self._parent[i]}\t{self._job[i]}\n")
