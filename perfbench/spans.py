"""Outside-in span recorder for the traced benchmark run.

`Tracer.install` rebinds the listed public functions of spinorlab, in every
spinorlab module namespace that holds them, with wrappers that record one span
per call: name, start, end, parent span and op id.  Spans stay in memory; self
time (span time minus child spans) is computed from them after the run.
Nothing under src/ changes, and the untraced run installs no wrappers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Layer (module) -> wrapped public functions, as `<module>.<function>` names.
LAYERS = {
    "algebra": ["geometric_product", "wedge", "contracted_wedge", "DenseTable.product", "dense_table"],
    "structure": ["hodge", "projector_pm", "truncated_product", "split_parallel_orthogonal", "volume_form"],
    "groups": ["rotor_exp", "versor_to_matrix", "membership", "versor_inverse"],
    "matrices": ["rep_from_idempotent", "check_clifford_relations"],
    "tables": ["classify_real"],
    "minkowski": [
        "bilinears", "classify_lounesto", "fpk_residuals", "fierz_aggregate",
        "quantize_minkowski", "reconstruct", "change_representation",
    ],
    "m8": [
        "classify_m8", "complexified_bilinears", "fierz_polyform", "fierz_identity_residual",
        "quantize", "dequantize", "flux_with_kernel_spinor", "build_constraint_operator",
        "kernel", "cgk_residual",
    ],
    "io": ["spinor_from_json", "spinor_to_json", "bilinears_to_json", "m8_spinor_from_json"],
}
FUNCTIONS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

OP_SPAN = "bench.op"
INSPECT_SPAN = "bench.inspect"


def _masks(mv) -> np.ndarray:
    return np.fromiter(mv.terms, dtype=np.int64, count=len(mv.terms))


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.stack: list = []
        self.op = -1
        self.errors: dict = defaultdict(int)
        self.term_pairs = 0
        self.wedge_pairs = 0
        self.wedge_useful = 0
        self._patched: list = []

    # -- spans ----------------------------------------------------------------

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, start, end, parent, self.op)

    def begin_op(self, op_id: int) -> tuple:
        self.op = op_id
        return self._open(), time.perf_counter()

    def end_op(self, token: tuple) -> None:
        self._close(token[0], OP_SPAN, token[1])

    def _inspect(self, name: str, args) -> None:
        """Argument counters; timed as a bench span so no layer is charged for them."""
        idx, start = self._open(), time.perf_counter()
        a, b = args[0], args[1]
        pairs = len(a.terms) * len(b.terms)
        self.term_pairs += pairs
        if name == "algebra.wedge" and pairs:
            self.wedge_pairs += pairs
            self.wedge_useful += int(((_masks(a)[:, None] & _masks(b)[None, :]) == 0).sum())
        self._close(idx, INSPECT_SPAN, start)

    def wrap(self, name: str, fn):
        inspect = name in ("algebra.geometric_product", "algebra.wedge")
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inspect:
                self._inspect(name, args)
            idx, start = self._open(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self._close(idx, name, start)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        from spinorlab.algebra import DenseTable

        modules = [m for key, m in list(sys.modules.items()) if key == "spinorlab" or key.startswith("spinorlab.")]
        for name in FUNCTIONS:
            layer, attr = name.split(".", 1)
            if attr == "DenseTable.product":
                self._patch(DenseTable, "product", self.wrap(name, DenseTable.product))
                continue
            original = getattr(sys.modules[f"spinorlab.{layer}"], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict:
        """name -> [calls, self seconds] over the spans inside ops (op id >= 0)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op >= 0:
                out[name][0] += 1
                out[name][1] += end - start - child[i]
        return out

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum((end - start for n, start, end, _, _ in self.spans if n == name), 0.0)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: [name, start, end, parent, op]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
