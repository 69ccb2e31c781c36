"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each layer, at each
importer's binding, with wrappers that record a span (id, parent id, name,
start, end) and a call count.  Self time is span time minus the time of
child spans.  A binding that no longer exists (after a refactor) is skipped,
and the metrics that depend on it are reported as absent.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import re
import time
from array import array

# span name -> bindings "module:attribute"; "MODEL_OPS[*].field" wraps that
# field of every entry of the model table, "Class.method" patches the class.
BINDINGS = {
    "cli.main": ["arctic.cli:main"],
    "combinat.binomial": ["arctic.models:binomial"],
    "linalg.det_bareiss": ["arctic.cli:det_bareiss"],
    "linalg.lu_exact": ["arctic.cli:lu_exact"],
    "linalg.det_ratio_last_column": ["arctic.cli:det_ratio_last_column"],
    "linalg.matmul": ["arctic.linalg:ExactMatrix.__matmul__"],
    "models.log_one_point_profile": ["arctic.tangent:log_one_point_profile"],
    "models.log_escape_profile": ["arctic.tangent:log_escape_profile"],
    "models.one_point_profile": ["arctic.cli:one_point_profile"],
    "models.one_point": ["arctic.models:MODEL_OPS[*].one_point"],
    "models.matrix": ["arctic.models:MODEL_OPS[*].matrix"],
    "models.closed_l_inv": ["arctic.models:MODEL_OPS[*].closed_l_inv"],
    "models.b_column": ["arctic.models:MODEL_OPS[*].b_column"],
    "models.vsasm_refined": [
        "arctic.cli:n_vsasm_refined",
        "arctic.cli:n_vsasm",
        "arctic.cli:raz_strog_check",
        "arctic.models:n_vsasm_refined",
        "arctic.models:n_vsasm",
    ],
    "oracle.count_nilp": ["arctic.oracle:count_nilp", "arctic.cli:count_nilp"],
    "oracle.enumerate": ["arctic.cli:enumerate_asm", "arctic.cli:enumerate_vsasm"],
    "tangent.finite_n_saddle": ["arctic.cli:finite_n_saddle"],
    "tangent.analytic_saddle": ["arctic.cli:analytic_saddle", "arctic.tangent:analytic_saddle"],
    "tangent.tangent_family": ["arctic.cli:tangent_family"],
    "tangent.envelope": ["arctic.cli:envelope"],
    "curves.residual": ["arctic.cli:residual"],
}

CALLS = (
    "combinat.binomial",
    "linalg.det_bareiss",
    "linalg.matmul",
    "models.log_escape_profile",
    "models.log_one_point_profile",
    "models.one_point",
    "oracle.count_nilp",
    "tangent.analytic_saddle",
    "curves.residual",
)
SELF = (
    "combinat.binomial",
    "linalg.det_bareiss",
    "linalg.lu_exact",
    "linalg.matmul",
    "linalg.det_ratio_last_column",
    "models.log_escape_profile",
    "models.log_one_point_profile",
    "models.one_point",
    "models.one_point_profile",
    "models.vsasm_refined",
    "models.matrix",
    "models.closed_l_inv",
    "models.b_column",
    "oracle.count_nilp",
    "oracle.enumerate",
    "tangent.finite_n_saddle",
    "tangent.analytic_saddle",
    "tangent.tangent_family",
    "tangent.envelope",
    "curves.residual",
    "cli.main",
)
# derived metric -> the span it is read from (None: read from the reports)
DERIVED = {
    "linalg.bareiss_cells": "linalg.det_bareiss",
    "linalg.det_bits_max": None,
    "models.profile_reuse_ratio": "models.log_one_point_profile",
    "cli.artifact_bytes": None,
    "cli.report_bytes": None,
}
# per-layer metric name -> unit, for BENCHMARK.json and the printed result
UNITS = {
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.self_s": "s" for name in SELF},
    "linalg.bareiss_cells": "count",
    "linalg.det_bits_max": "bits",
    "models.profile_reuse_ratio": "ratio",
    "cli.artifact_bytes": "bytes",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}

_FRACTION = re.compile(r"^-?(\d+)/(\d+)$")


class Tracer:
    def __init__(self, bindings: dict[str, list[str]] = BINDINGS) -> None:
        self.bindings = bindings
        self.names = list(bindings)
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.bareiss_cells = 0.0
        self.profile_keys: set = set()
        self.det_bits_max = 0
        self.artifact_bytes = 0
        self.report_bytes = 0

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, on_call=None):
        index = self.names.index(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            span = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                self.span_id.append(span)
                self.parent.append(parent)
                self.name.append(index)
                self.start.append(start)
                self.end.append(end)

        return traced

    def _on_bareiss(self, args) -> None:
        rows = getattr(args[0], "rows", 0) if args else 0
        self.bareiss_cells += rows**3 / 3

    def _on_profile(self, args) -> None:
        self.profile_keys.add(tuple(repr(a) for a in args))

    def install(self) -> set[str]:
        """Wrap every binding that exists; returns the span names left unwrapped."""
        hooks = {"linalg.det_bareiss": self._on_bareiss,
                 "models.log_one_point_profile": self._on_profile}
        missing = set()
        for name, bindings in self.bindings.items():
            installed = 0
            for binding in bindings:
                try:
                    self._install_one(name, binding, hooks.get(name))
                    installed += 1
                except (ImportError, AttributeError, TypeError):
                    pass
            if not installed:
                missing.add(name)
        return missing

    def _install_one(self, name: str, binding: str, on_call) -> None:
        module_name, attr = binding.split(":")
        module = importlib.import_module(module_name)
        if "[*]." in attr:
            table_name, field = attr.split("[*].")
            table = getattr(module, table_name)
            for key, entry in table.items():
                fn = getattr(entry, field)
                table[key] = dataclasses.replace(entry, **{field: self._wrap(name, fn, on_call)})
            return
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        setattr(owner, fn_name, self._wrap(name, getattr(owner, fn_name), on_call))

    # -- results --------------------------------------------------------------

    def observe(self, result: dict) -> None:
        """Count report and artifact bytes and determinant bit lengths of one op."""
        self.report_bytes += result["report_bytes"]
        self.artifact_bytes += result["artifact_bytes"]
        for check in (result["report"] or {}).get("checks", []):
            for value in (check.get("expected"), check.get("actual")):
                match = _FRACTION.match(value) if isinstance(value, str) else None
                if match:
                    bits = max(int(match[1]).bit_length(), int(match[2]).bit_length())
                    self.det_bits_max = max(self.det_bits_max, bits)

    def metrics(self, missing: set[str]) -> dict[str, float]:
        """Per-layer metrics; those whose binding is missing are left out."""
        out: dict[str, float] = {}
        for name in CALLS:
            if name not in missing:
                out[f"{name}.calls"] = self.calls[name]
        for name in SELF:
            if name not in missing:
                out[f"{name}.self_s"] = self.self_s[name]
        derived = {
            "linalg.bareiss_cells": self.bareiss_cells,
            "linalg.det_bits_max": self.det_bits_max,
            "models.profile_reuse_ratio": (
                1 - len(self.profile_keys) / self.calls["models.log_one_point_profile"]
                if self.calls["models.log_one_point_profile"] else 0.0
            ),
            "cli.artifact_bytes": self.artifact_bytes,
            "cli.report_bytes": self.report_bytes,
        }
        for metric, source in DERIVED.items():
            if source not in missing:
                out[metric] = derived[metric]
        return out

    def check_nesting(self) -> dict[str, int]:
        """Count spans that start before or end after their parent span."""
        bounds = {s: (a, b) for s, a, b in zip(self.span_id, self.start, self.end)}
        bad = 0
        for parent, start, end in zip(self.parent, self.start, self.end):
            if parent >= 0:
                p_start, p_end = bounds[parent]
                bad += start < p_start or end > p_end
        return {"spans": len(self.span_id), "outlasting_children": bad}
