"""Span tracing of the iqcc layers from outside the package.

``Tracer.install()`` replaces functions of the ``iqcc`` modules with timing
wrappers, each in the namespace it is looked up from at call time
(``iqcc.driver.dress_sequence`` is the name ``run_iqcc`` calls, so that is
the one patched), and puts the originals back on exit.  Nothing under
``src/`` changes.  A span records (name, start, end, parent, run id); a hook
may add counts from the call's arguments and result.  ``x_group_slice`` is
counted, not spanned: it is two binary searches inside the gradient loop, so
a span would cost about as much as the call it times.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter, defaultdict


def _canonical_rows(counts, args, result):
    counts["packed.canonical_rows_in"] += len(args[3])
    counts["packed.canonical_rows_out"] += len(result)


def _pack_rows(counts, args, result):
    counts["packed.pack_rows"] += len(args[0])


def _dress_rows(counts, args, result):
    counts["packed.dress_rows_in"] += len(args[0])
    counts["packed.dress_rows_out"] += len(result)


def _eval_terms(counts, args, result):
    counts["engine.eval_terms_in"] += len(args[0])


def _ranked(counts, args, result):
    counts["engine.generators_ranked"] += len(result[0]) + len(result[1])


def _prune_rows(counts, args, result):
    counts["pauli_sum.prune_rows_in"] += len(args[0])
    counts["pauli_sum.prune_rows_out"] += len(result[0])


def _minimized(counts, args, result):
    counts["optimizer.evaluations"] += result.evaluations
    counts["optimizer.converged"] += int(result.converged)


def _ran(counts, args, result):
    counts["driver.iterations"] += len(result.records)
    counts["driver.final_terms"] += len(result.final_hamiltonian)


def _jw_terms(counts, args, result):
    counts["mapping.jw_terms_out"] += len(result)


# (span name, defining module, function, namespaces it is called from, hook)
PATCHES = (
    ("driver.run", "iqcc.driver", "run_iqcc", ("iqcc.cli", "iqcc.driver"), _ran),
    ("driver.pt", "iqcc.driver", "pt_correction", ("iqcc.driver",), None),
    ("engine.rank", "iqcc.engine", "rank_generators", ("iqcc.driver",), _ranked),
    ("engine.eval", "iqcc.engine", "qcc_energy_and_gradient", ("iqcc.driver",), _eval_terms),
    ("optimizer.minimize", "iqcc.optimizer", "minimize", ("iqcc.driver",), _minimized),
    ("pauli_sum.dress_sequence", "iqcc.pauli_sum", "dress_sequence", ("iqcc.driver",), None),
    ("pauli_sum.prune", "iqcc.pauli_sum", "prune", ("iqcc.driver",), _prune_rows),
    ("pauli_sum.to_json", "iqcc.pauli_sum", "to_json_dict", ("iqcc.cli",), None),
    ("mapping.penalize", "iqcc.mapping", "penalize", ("iqcc.driver",), None),
    ("mapping.jordan_wigner", "iqcc.mapping", "jordan_wigner", ("iqcc.cli", "iqcc.driver"), _jw_terms),
    ("fcidump.load", "iqcc.fcidump", "load_fcidump", ("iqcc.cli",), None),
    # _packed functions are looked up on the module at call time
    ("packed.canonical", "iqcc._packed", "_canonical", ("iqcc._packed",), _canonical_rows),
    ("packed.pack", "iqcc._packed", "pack", ("iqcc._packed",), _pack_rows),
    ("packed.unpack", "iqcc._packed", "unpack", ("iqcc._packed",), None),
    ("packed.dress_packed", "iqcc._packed", "dress_packed", ("iqcc._packed",), _dress_rows),
    ("packed.block_statistics", "iqcc._packed", "block_statistics", ("iqcc._packed",), None),
)
COUNTED = (("packed.x_group_slice_calls", "iqcc._packed", "x_group_slice"),)


class Tracer:
    """In-memory spans and counts; one ``run`` id per traced command."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        """``fn`` wrapped in a span; ``hook(counts, args, result)`` adds counts."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around the ``with`` block, a child of the innermost open span."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Patch every entry of PATCHES and COUNTED; restore on exit."""
        saved = []
        try:
            for name, home, attr, namespaces, hook in PATCHES:
                wrapped = self.wrap(name, getattr(importlib.import_module(home), attr), hook)
                for ns in namespaces:
                    saved.append(_swap(importlib.import_module(ns), attr, wrapped))
            for name, home, attr in COUNTED:
                module = importlib.import_module(home)
                saved.append(_swap(module, attr, self.counter(name, getattr(module, attr))))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> tuple[dict, dict]:
        """(total duration, total self time) per span name, in seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the traced code is serial.
        """
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for name, start, end, parent, _run in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict = defaultdict(float)
        for i, (name, start, end, _parent, _run) in enumerate(self.spans):
            own[name] += (end - start) - child.get(i, 0.0)
        return dict(total), dict(own)

    def calls(self) -> Counter:
        return Counter(rec[0] for rec in self.spans)

    def write(self, path) -> None:
        """Spans as JSON lines: id, name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def _swap(module, attr, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    return module, attr, original
