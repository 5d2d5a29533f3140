"""Spans around calls into chainsurg's modules, installed from outside the package.

`Tracer.install()` replaces selected public functions of each chainsurg
module by timing wrappers. `from .f2linalg import solve` copies the name
into the importing module, so every chainsurg module namespace that binds
the original function object is patched, not just the defining one.
Methods are patched on their class. `uninstall()` restores every binding.

A span is (function id, start, end, parent span, job). A function that is
not wrapped (every private helper, for instance) bills its time to the
nearest wrapped caller. Spans stay in memory until `write()`.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# layer -> functions timed in that layer. "Class.method" entries are patched on the class.
# Besides the functions the metrics name, each layer lists its other public entry
# points, so that their self time is billed to their own layer and not to the caller's.
LAYERS = {
    "f2linalg": (
        "rref", "solve", "rank", "kernel_basis", "image_basis", "quotient_basis",
        "coset_reduce", "invert", "left_inverse_block", "F2Matrix.__matmul__",
    ),
    "chaincomplex": (
        "homology", "cohomology", "induced_on_homology", "validate", "validate_chain_map",
        "direct_sum", "HomologyBasis.class_coordinates",
    ),
    "csscode": (
        "from_parity_checks", "dual_x_basis", "dual_z_basis", "encoder_isometry",
        "encoder_with_fixed_logical", "distance_bruteforce",
    ),
    "surgery": (
        "validate_subcode", "quotient_merge", "analyze_merge", "merge_report_json",
        "induced_logical_matrix", "split_from_merge", "span_merge", "merge_decompose",
    ),
    "protocols": (
        "build_cnot_plan", "code_switch_plan", "pairwise_switch_plan", "plan_to_json",
        "plan_from_json", "plan_channel", "plan_physical_ops", "plan_encoders", "propagate_pauli",
        "measurement_correction", "expected_plan_channel", "plan_symplectic_action",
        "decompose_merge_support", "direct_sum_code",
    ),
    "simverify": ("apply_linear", "apply", "extract_logical_channel", "physical_op_sequence"),
    "catalog": (
        "steane", "reed_muller_15", "surface_patch", "toric", "trivial_qubit", "no_check",
        "catalog_code", "worked_example", "switch_subcode",
    ),
    "cli": ("main",),
}

# Short metric names for methods.
ALIASES = {"F2Matrix.__matmul__": "matmul", "HomologyBasis.class_coordinates": "class_coordinates"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # function id -> "layer.short_name"
        self.spans: list = []
        self.stack: list[int] = []
        self.job = None  # tag stored in each span; set by the runner
        self.counters: dict[str, float] = defaultdict(float)  # "scope:metric" -> value
        self._rref_seen: set = set()
        self._patches: list[tuple[object, str, object]] = []  # (namespace, attr, original)

    # --- counters computed at the call boundary, outside the span --------------

    def _count_rref(self, args):
        m = args[0]
        self.counters[f"{self._scope()}:f2linalg.rref.cells"] += m.rows * m.cols
        key = (m.shape, m.a.tobytes())
        if key not in self._rref_seen:
            self._rref_seen.add(key)
            self.counters[f"{self._scope()}:f2linalg.rref.distinct"] += 1

    def _count_encoder(self, args):
        code = args[0]
        self.counters[f"{self._scope()}:csscode.encoder_isometry.bytes"] += 16 * (1 << code.n) * (1 << code.k)

    def _count_apply(self, args):
        op = args[0]
        self.counters[f"{self._scope()}:simverify.apply_linear.bytes"] += 16 * ((1 << op.n_in) + (1 << op.n_out))

    def _scope(self) -> str:
        return "setup" if self.job == "setup" else "loop"

    def start_job(self, tag) -> None:
        """Tag later spans with `tag`; distinct rref inputs are counted per job."""
        self.job = tag
        self._rref_seen = set()

    # --- install / uninstall ---------------------------------------------------

    def _wrapper(self, fid: int, fn, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, self.job)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        counters = {
            "f2linalg.rref": self._count_rref,
            "csscode.encoder_isometry": self._count_encoder,
            "simverify.apply_linear": self._count_apply,
        }
        namespaces = [m for name, m in sys.modules.items() if name == "chainsurg" or name.startswith("chainsurg.")]
        self.names = []
        for layer, funcs in LAYERS.items():
            module = sys.modules[f"chainsurg.{layer}"]
            for qual in funcs:
                label = f"{layer}.{ALIASES.get(qual, qual)}"
                fid = len(self.names)
                self.names.append(label)
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, orig, self._wrapper(fid, orig, counters.get(label)))
                    continue
                orig = getattr(module, qual)
                wrapped = self._wrapper(fid, orig, counters.get(label))
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            self._patch(ns, attr, orig, wrapped)

    def _patch(self, ns, attr, orig, wrapped) -> None:
        setattr(ns, attr, wrapped)
        self._patches.append((ns, attr, orig))

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches = []

    # --- aggregation -------------------------------------------------------------

    def self_times(self, keep) -> tuple[dict, dict]:
        """(calls, self seconds) per function label over spans whose job satisfies `keep`."""
        child = defaultdict(float)
        for span in self.spans:
            fid, t0, t1, parent, job = span
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s = defaultdict(int), defaultdict(float)
        for idx, (fid, t0, t1, parent, job) in enumerate(self.spans):
            if keep(job):
                label = self.names[fid]
                calls[label] += 1
                self_s[label] += (t1 - t0) - child[idx]
        return calls, self_s

    def stage_times(self, keep) -> dict:
        """Inclusive seconds per (job, label) of spans directly under a `cli.main` span."""
        main_ids = {i for i, label in enumerate(self.names) if label == "cli.main"}
        out = defaultdict(float)
        for fid, t0, t1, parent, job in self.spans:
            if keep(job) and parent >= 0 and self.spans[parent][0] in main_ids:
                out[(job, self.names[fid])] += t1 - t0
        return out

    def write(self, path: Path, jobs: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"functions": self.names, "jobs": jobs, "span_fields": ["function", "start", "end", "parent", "job"],
               "spans": self.spans}
        path.write_text(json.dumps(doc))
