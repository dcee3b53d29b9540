"""Per-layer spans for the traced benchmark run.

The package's modules call each other through module-level names, so
rebinding those names for the duration of an operation times every layer
without editing ``src/``.  Spans (name, start, end, parent span, operation)
are kept in memory and written out when the run ends; self times are
derived from them.  A name that a later version of the package no longer
has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import csv
import functools
import inspect
import time
from collections import Counter
from importlib import import_module


def _count_run(counts, args, kwargs, result):
    records = result.records
    counts["harness.runs"] += 1
    counts["harness.iterations"] += len(records)


def _count_action(counts, args, kwargs, result):
    action = result.action
    if action == "kickstart":
        counts["feedback.kickstarts"] += 1
    elif action.startswith("walk"):
        counts["feedback.walks"] += 1
    elif action.startswith("push"):
        counts["feedback.pushes"] += 1


def _count_orders(counts, args, kwargs, result):
    chi, coeffs = args[0], args[1]
    axis = args[3] if len(args) > 3 else kwargs.get("axis")
    counts["feedback.walk_orders"] += coeffs.order * (chi.ndim if axis is None else 1)


def _count_kernel_bytes(counts, args, kwargs, result):
    # computed, not measured: each kernel reads and writes its whole array once
    counts["statevector.bytes_computed"] += 2 * args[0].nbytes


def _count_cells(counts, args, kwargs, result):
    counts["qft.success_map_cells"] += len(result)


def _count_evaluations(counts, args, kwargs, result):
    counts["optimize.evaluations"] += result.evaluations


def _count_write(counts, args, kwargs, result):
    counts["harness.write_bytes"] += args[1].stat().st_size


#: (module, attribute, span name, counter) for every wrapped name
TARGETS = (
    ("gatelearn.harness", "run_learning", "harness.run", _count_run),
    ("gatelearn.harness", "summarize", "harness.summarize", None),
    ("gatelearn.harness", "write_runs_csv", "harness.write", _count_write),
    ("gatelearn.harness", "write_summary_json", "harness.write", _count_write),
    ("gatelearn.harness", "write_histogram_csv", "harness.write", _count_write),
    ("gatelearn.harness", "on_failure", "feedback.on_failure", _count_action),
    ("gatelearn.harness", "sample_and_update", "backaction.sample", None),
    ("gatelearn.harness", "trial_output_batch", "qft.trial_batch", None),
    ("gatelearn.harness", "expected_success", "parameter.diag", None),
    ("gatelearn.harness", "distribution_variance", "parameter.diag", None),
    ("gatelearn.harness", "average_success_map", "qft.success_map", _count_cells),
    ("gatelearn.backaction", "OutcomeAmplitudes.full", "backaction.amps_build", None),
    ("gatelearn.feedback", "walk_coefficients", "feedback.walk_coeff", None),
    ("gatelearn.feedback", "apply_quantum_walk", "feedback.walk", _count_orders),
    ("gatelearn.feedback", "dephase_random", "parameter.dephase", None),
    ("gatelearn.feedback", "translate", "parameter.translate", None),
    ("gatelearn.feedback", "invert_about_mean", "parameter.invert", None),
    ("gatelearn.qft", "_apply_single_qubit", "statevector.kernel", _count_kernel_bytes),
    ("gatelearn.qft", "_apply_cphase", "statevector.kernel", _count_kernel_bytes),
    ("gatelearn.qft", "_apply_swap", "statevector.kernel", _count_kernel_bytes),
    ("gatelearn.optimize", "optimize_phases", "optimize.cell", _count_evaluations),
    ("gatelearn.optimize", "average_success_map", "qft.success_map", _count_cells),
    ("gatelearn.optimize", "average_success", "qft.average_success", None),
)

#: spans that only dispatch to other layers; excluded when ranking work layers
DISPATCH = {"op", "harness.run", "feedback.on_failure", "optimize.cell"}


class Tracer:
    """Records spans and counts while installed around an operation."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, operation)
        self.counts = Counter()
        self.absent = []  # wrapped names this version of the package lacks
        self.uncounted = set()  # spans whose counter no longer fits the package
        self.op = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original static value, wrapper)
        for module_name, path, span, count in TARGETS:
            owner = import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(span, getattr(owner, attr), count)
            if isinstance(original, classmethod):
                wrapper = staticmethod(wrapper)
            self._patches.append((owner, attr, original, wrapper))

    def _wrap(self, name, fn, count):
        spans, stack, counts, uncounted = self.spans, self._stack, self.counts, self.uncounted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                try:
                    count(counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    uncounted.add(name)
            return result

        return traced

    def run(self, op_index, fn, *args):
        """Call ``fn(*args)`` as operation ``op_index`` with every wrapper installed."""
        self.op = op_index
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            return self._wrap("op", fn, None)(*args)
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def layer_totals(self):
        """{span name: (inclusive seconds, self seconds, calls)} over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            inclusive, self_time, calls = totals.get(name, (0.0, 0.0, 0))
            duration = end - start
            totals[name] = (inclusive + duration, self_time + duration - child[index], calls + 1)
        return totals

    def work_shares(self):
        """(share of operation time, span name) for every non-dispatch layer, largest first."""
        totals = self.layer_totals()
        op_time = totals.get("op", (0.0,))[0]
        if not op_time:
            return []
        return sorted(
            ((inclusive / op_time, name) for name, (inclusive, _, _) in totals.items()
             if name not in DISPATCH),
            reverse=True,
        )

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "start", "end", "parent", "op"])
            writer.writerows(self.spans)
