"""Outside-in tracing of detf5 calls and the per-layer metrics drawn from it.

The tracer replaces public functions with timing wrappers at the place
their callers look them up: a module attribute such as `detf5.cli.crit_gb`,
or a method on its class.  Each wrapped call records a span: name, parent
span, start, end, and a few attributes read from its arguments or result.
Spans stay in memory until the run ends.

A span's self time is its duration minus its direct children's durations,
so the self times of one call's spans add up to the call's wall time.  Each
span's self time goes to exactly one bucket of SELF_BUCKETS:

* everything inside `en_leading_terms` (the H run, with its inner sig_gb)
  goes to determinantal.en_leading_terms_s;
* everything inside the genericity probe's `lazard_gb` goes to
  determinantal.probe_s;
* any other span goes to the bucket of its name in BUCKET_OF.

So macaulay.echelonize_s, macaulay.build_s and macaulay.row_as_element_s
cover the main degree loop only: the matrices of the main sig_gb, or of
verify's full_macaulay calls.  The other metrics are counts over those
main-loop matrices or inclusive times, listed in COUNT_METRICS and
INCLUSIVE_METRICS.
"""

from __future__ import annotations

import functools
import importlib
import time
from statistics import median

# name, module of the attribute, class name or None
TARGETS = [
    ("read_instance", "detf5.cli", None),
    ("max_minors_sig_gb", "detf5.cli", None),
    ("crit_gb", "detf5.cli", None),
    ("verify_instance", "detf5.cli", None),
    ("minors", "detf5.determinantal", None),
    ("jacobian", "detf5.determinantal", None),
    ("en_leading_terms", "detf5.determinantal", None),
    ("sig_gb", "detf5.determinantal", None),
    ("lazard_gb", "detf5.determinantal", None),
    # importlib, not `import detf5.sig_gb`: the package re-exports the
    # function sig_gb under the module's name
    ("build_macaulay", "detf5.sig_gb", None),
    ("minors", "detf5.verify", None),
    ("en_leading_terms", "detf5.verify", None),
    ("full_macaulay", "detf5.verify", None),
    ("echelonize", "detf5.macaulay", "MacaulayMatrix"),
    ("row_as_element", "detf5.macaulay", "MacaulayMatrix"),
    ("covers", "detf5.sig_gb", "SyzygySignatureSet"),
    ("add", "detf5.sig_gb", "SyzygySignatureSet"),
    ("count_layer", "detf5.sig_gb", "SyzygySignatureSet"),
]

ROOT = "main"  # the cli.main call itself
H_BUCKET = "determinantal.en_leading_terms_s"
PROBE_BUCKET = "determinantal.probe_s"
BUCKET_OF = {
    ROOT: "cli.self_s",
    "read_instance": "instances.read_instance_s",
    "max_minors_sig_gb": "determinantal.driver_self_s",
    "crit_gb": "determinantal.driver_self_s",
    "minors": "determinantal.minors_s",
    "jacobian": "determinantal.minors_s",
    # the main sig_gb's own loop plus its syzygy-set lookups: the row filter
    "sig_gb": "sig_gb.filter_s",
    "covers": "sig_gb.filter_s",
    "add": "sig_gb.filter_s",
    "count_layer": "sig_gb.count_layer_s",
    "build_macaulay": "macaulay.build_s",
    "full_macaulay": "macaulay.build_s",  # its self time is the assembly
    "echelonize": "macaulay.echelonize_s",
    "row_as_element": "macaulay.row_as_element_s",
    "verify_instance": "verify.self_s",
}
SELF_BUCKETS = sorted(set(BUCKET_OF.values()) | {H_BUCKET, PROBE_BUCKET})
INCLUSIVE_METRICS = [
    "macaulay.echelonize_top_s",
    "macaulay.echelonize_after_saturation_s",
    "macaulay.full_macaulay_s",
]
# identical on every call of one instance
COUNT_METRICS = {
    "sig_gb.rows_built": "count",
    "sig_gb.rows_skipped_h": "count",
    "sig_gb.rows_skipped_f5": "count",
    "sig_gb.zero_reductions": "count",
    "sig_gb.useful_ratio": "ratio",
    "sig_gb.basis_size": "count",
    "sig_gb.degrees_after_saturation": "count",
    "macaulay.build_cells": "count",
    "macaulay.echelonize_mb_computed": "MiB",
    "determinantal.h_size": "count",
}
OVERHEAD = "trace.overhead_ratio"
UNITS = {
    **{m: "s" for m in SELF_BUCKETS + INCLUSIVE_METRICS},
    **COUNT_METRICS,
    OVERHEAD: "ratio",
}


def _allocated_bytes(arr) -> int:
    """Bytes of the array a view was cut from (or of the array itself)."""
    if arr is None:
        return 0
    base = getattr(arr, "base", None)
    return (base if base is not None else arr).nbytes


def _matrix_attrs(M) -> dict:
    return {"degree": M.degree, "nrows": M.nrows, "ncols": M.ncols}


def _echelonize_before(args):
    return _allocated_bytes(getattr(args[0], "block", None))


def _echelonize_after(args, out, block_bytes):
    M = args[0]
    arrays = block_bytes
    arrays += _allocated_bytes(getattr(M, "_shadow", None))
    arrays += _allocated_bytes(getattr(M, "out_rows", None))
    return {**_matrix_attrs(M), "rank": M.rank, "zero": len(M.zero_sigs), "bytes": arrays}


DESCRIBE = {
    # name: (read before the call, or None; attributes after the call)
    "echelonize": (_echelonize_before, _echelonize_after),
    "build_macaulay": (None, lambda args, out, _: _matrix_attrs(out)),
    "full_macaulay": (None, lambda args, out, _: _matrix_attrs(out)),
    "covers": (None, lambda args, out, _: bool(out)),
    "en_leading_terms": (None, lambda args, out, _: len(out)),
}


class Tracer:
    """Span recorder.  A span is [name, parent index or -1, start, end,
    attributes]; spans[i] is span i."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []  # targets absent from this version of detf5
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        before, after = DESCRIBE.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            pre = before(args) if before else None
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after:
                rec[4] = after(args, out, pre)
            return out

        return traced

    def install(self):
        for name, module, cls in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, name, None)
            if fn is None:
                self.missing.append(f"{module}.{cls + '.' if cls else ''}{name}")
                continue
            setattr(owner, name, self._wrap(name, fn))
            self._restore.append((owner, name, fn))

    def uninstall(self):
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()

    def call(self, fn, *args):
        """Run fn(*args) as the root span, spans[0]; one call per tracer."""
        if self.spans:
            raise RuntimeError("a tracer records one call")
        return self._wrap(ROOT, fn)(*args)


def call_metrics(spans: list) -> tuple:
    """Per-layer metrics of one traced call, spans[0] being its root.
    Returns (metrics, problems); a problem is reported when the self times
    fail to add up to the root's duration.  rows_skipped_f5 and basis_size
    need the stats sidecar and are left to the caller."""
    names = [s[0] for s in spans]
    attrs = [s[4] for s in spans]
    dur = [s[3] - s[2] for s in spans]
    children = [0.0] * len(spans)
    ctx = ["main"] * len(spans)
    for k in range(1, len(spans)):
        parent = spans[k][1]
        children[parent] += dur[k]
        if names[k] == "en_leading_terms" or ctx[parent] == "h":
            ctx[k] = "h"
        elif names[k] == "lazard_gb" or ctx[parent] == "probe":
            ctx[k] = "probe"
    out = dict.fromkeys(SELF_BUCKETS, 0.0)
    for k, name in enumerate(names):
        bucket = {"h": H_BUCKET, "probe": PROBE_BUCKET}.get(ctx[k]) or BUCKET_OF[name]
        out[bucket] += dur[k] - children[k]

    main = [k for k in range(len(spans)) if ctx[k] == "main"]
    main_sig = {k for k in main if names[k] == "sig_gb"}
    ech = [k for k in main if names[k] == "echelonize"]  # one per degree, in order
    loop = [attrs[k] for k in ech]
    saturated = next((i for i, a in enumerate(loop) if a["rank"] == a["ncols"]), len(loop))
    rows = sum(a["nrows"] for a in loop)
    all_ech = [k for k, name in enumerate(names) if name == "echelonize"]
    top = max(all_ech, key=lambda k: attrs[k]["nrows"] * attrs[k]["ncols"], default=None)
    out.update(
        {
            "macaulay.echelonize_top_s": dur[top] if top is not None else 0.0,
            "macaulay.echelonize_mb_computed": attrs[top]["bytes"] / 2**20 if top is not None else 0.0,
            "macaulay.echelonize_after_saturation_s": sum((dur[k] for k in ech[saturated + 1 :]), 0.0),
            "macaulay.full_macaulay_s": sum((dur[k] for k in main if names[k] == "full_macaulay"), 0.0),
            "macaulay.build_cells": sum(
                attrs[k]["nrows"] * attrs[k]["ncols"]
                for k in main
                if names[k] in ("build_macaulay", "full_macaulay")
            ),
            "sig_gb.degrees_after_saturation": max(0, len(loop) - saturated - 1),
            "sig_gb.rows_built": rows,
            "sig_gb.zero_reductions": sum(a["zero"] for a in loop),
            "sig_gb.useful_ratio": sum(a["rank"] for a in loop) / rows if rows else 0.0,
            "sig_gb.rows_skipped_h": sum(
                1 for k, name in enumerate(names) if name == "covers" and attrs[k] and spans[k][1] in main_sig
            ),
            "determinantal.h_size": sum(attrs[k] for k, name in enumerate(names) if name == "en_leading_terms"),
        }
    )
    total = sum(out[b] for b in SELF_BUCKETS)
    problems = []
    if abs(total - dur[0]) > 1e-6:
        problems.append(f"self times add up to {total!r} s, the call took {dur[0]!r} s")
    return out, problems


def summarize(per_call: list, untraced_walls: list, traced_walls: list) -> tuple:
    """Median of each time over the traced calls; counts must repeat on
    every call.  Returns (metrics, problems)."""
    problems = []
    out = {}
    for name in UNITS:
        if name == OVERHEAD:
            out[name] = median(traced_walls) / median(untraced_walls)
        elif name in COUNT_METRICS:
            values = {m[name] for m in per_call}
            if len(values) > 1:
                problems.append(f"{name} differs between calls: {sorted(values)}")
            out[name] = per_call[0][name]
        else:
            out[name] = median(m[name] for m in per_call)
    return out, problems
