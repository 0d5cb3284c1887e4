"""Outside-in tracing of the sumnet layers.

The tracer wraps the public entry points of each layer at every module
attribute that binds them (``cli`` and ``report`` import ``verify_exact``
and others with ``from ... import``), so the program itself stays
unchanged.  Each call becomes a span with a parent link and the id of the
job it ran in.  Spans stay in memory and are written as JSON lines at the
end of the run.

Per layer the tracer reports:

* ``calls``  -- spans entered from outside the layer (outermost spans);
* ``self_s`` -- span time minus the time of child spans, summed;
* ``busy_s`` -- inclusive time of the outermost spans.

``gf`` is timed inside its callers.  So are per-element helpers that run
once per subset, edge or label (``closure_columns``, ``row_source``, ...):
a span there would cost more than the work it times.  Size counters are
taken at the same boundaries; those derived from shapes rather than
observed are named as computed in the metric table of ``run.py``.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# layer -> (module, public functions timed as that layer)
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli": ("sumnet.cli", ("main", "build_parser", "cmd_structure", "cmd_bound",
                           "cmd_code", "cmd_table")),
    "report": ("sumnet.report", ("orient_matrix", "family_kind", "applicable_bounds",
                                 "best_bound", "generate_code", "capacity_table",
                                 "render_table_text", "render_table_jsonl",
                                 "higher_family_capacity")),
    "incidence": ("sumnet.incidence", ("from_graph", "complete_graph", "fano",
                                       "steiner_triple", "all_subsets_design",
                                       "validate_design", "detect_design",
                                       "higher_incidence", "star_composite",
                                       "render_matrix_text", "parse_matrix_text",
                                       "render_blocks_text", "parse_blocks_text")),
    "network": ("sumnet.network", ("build_sum_network", "min_cut", "export_graph",
                                   "import_graph")),
    "bounds.rank": ("sumnet.bounds", ("rank_bound", "bound_matrix", "support_product")),
    "bounds.subset": ("sumnet.bounds", ("subset_bound", "subset_bound_limited")),
    "bounds.family": ("sumnet.bounds", ("family_bound", "graph_transpose_sets")),
    "codes.residue": ("sumnet.codes", ("overlap_residue",)),
    "codes.maxflow": ("sumnet.codes", ("find_margin_matrix", "find_transfer_matrix",
                                       "check_transfer_matrix")),
    "codes.build": ("sumnet.codes", ("build_transfer_code", "build_scalar_code",
                                     "build_graph_transpose_code")),
    "codes.lift": ("sumnet.codes", ("lift_code",)),
    "codes.export": ("sumnet.codes", ("export_code",)),
    "codes.import": ("sumnet.codes", ("import_code",)),
    "verify.exact": ("sumnet.verify", ("verify_exact",)),
    "verify.random": ("sumnet.verify", ("verify_random",)),
}


class CoverageError(RuntimeError):
    """A traced function is missing, or a dominant layer recorded no calls."""


# ---------------------------------------------------------------------------
# size counters, taken from the arguments and result of a finished call


def _count_network(args, result):
    return {"network.edges": len(result.edges)}


def _count_subsets(args, result):
    r = args["a"].rows
    if "max_size" in args:
        return {"bounds.subset.subsets": sum(math.comb(r, k)
                                             for k in range(1, min(args["max_size"], r) + 1))}
    return {"bounds.subset.subsets": 2**r - 1}


def _count_encoders(args, result):
    return {
        "codes.encoder_entries": sum(int(e.size) for e in result.encoders),
        "codes.encoder_nnz": sum(int(np.count_nonzero(e)) for e in result.encoders),
    }


def _count_verify_exact(args, result):
    net, code = args["net"], args["code"]
    width = code.m * (net.r + net.c)
    madds = sum(d.matrix.shape[0] * d.matrix.shape[1] * width for d in code.decoders.values())
    return {"verify.exact.terminals": len(code.decoders), "verify.exact.dense_madds": madds}


def _count_verify_random(args, result):
    return {"verify.random.trials": args["trials"]}


def _count_export(args, result):
    return {"codes.export.bytes": len(result.encode())}


def _count_report(args, result):
    return {"report.rows": len(result), "report.matched": sum(r.matched for r in result)}


COUNTERS: dict[str, Callable] = {
    "build_sum_network": _count_network,
    "subset_bound": _count_subsets,
    "subset_bound_limited": _count_subsets,
    "build_transfer_code": _count_encoders,
    "build_scalar_code": _count_encoders,
    "build_graph_transpose_code": _count_encoders,
    "lift_code": _count_encoders,
    "verify_exact": _count_verify_exact,
    "verify_random": _count_verify_random,
    "export_code": _count_export,
    "capacity_table": _count_report,
}


# ---------------------------------------------------------------------------


class Tracer:
    """Records spans for the wrapped layer functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, pass, job, layer, fn, start_ns, end_ns)
        self.job = -1
        self.pass_no = -1
        self._stack: list[list] = []  # [span id, child_ns] of each open span
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self.reset_totals()

    def reset_totals(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function at every ``sumnet`` attribute bound to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "sumnet" or name.startswith("sumnet."))]
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules.get(modname)
            if module is None:
                raise CoverageError(f"module {modname} is not loaded")
            for fname in names:
                orig = getattr(module, fname, None)
                if not inspect.isfunction(orig):
                    raise CoverageError(f"{modname}.{fname} is missing (layer {layer})")
                wrapper = self._wrap(layer, fname, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, layer: str, fname: str, orig: Callable) -> Callable:
        counter = COUNTERS.get(fname)
        sig = inspect.signature(orig) if counter else None
        clock = time.perf_counter_ns
        spans, stack, depth = self.spans, self._stack, self._depth

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)  # reserve the id; filled in when the span ends
            frame = [span_id, 0]
            stack.append(frame)
            outer = depth[layer] == 0
            depth[layer] += 1
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                dur = end - start
                self.self_ns[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if outer:
                    self.calls[layer] += 1
                    self.busy_ns[layer] += dur
                spans[span_id] = (span_id, parent, self.pass_no, self.job, layer, fname,
                                  start, end)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    self.counts[key] += value
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = orig.__name__
        wrapper.__qualname__ = orig.__qualname__
        wrapper.__doc__ = orig.__doc__
        return wrapper

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Per-layer calls, self and busy seconds, and the size counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
            out[f"{layer}.busy_s"] = self.busy_ns[layer] / 1e9
        out.update(self.counts)
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                if span is None:
                    continue
                span_id, parent, pass_no, job, layer, fname, start, end = span
                fh.write(json.dumps({
                    "span": span_id, "parent": parent, "pass": pass_no, "job": job,
                    "layer": layer, "fn": fname, "start_ns": start,
                    "dur_s": (end - start) / 1e9,
                }) + "\n")


def check_dominant(totals: dict[str, float], dominant: Optional[str]) -> None:
    if dominant is not None and not totals.get(f"{dominant}.calls"):
        raise CoverageError(f"dominant layer {dominant} recorded no calls")
