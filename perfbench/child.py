"""The benchmark's worker process; run.py starts a fresh one per task.

    child.py setup  WORKLOAD SEED WORK OUT T0
    child.py oracle WORKLOAD SEED WORK OUT
    child.py call   WORKLOAD SEED WORK OUT T0 TRACE ORACLE KNOWN

`setup` imports detf5, writes the instance file and reports the time since
T0, a time.monotonic() reading the launcher takes just before it starts
the process.  `oracle` writes the lazard_gb lead monomials of the
instance.  `call` does the same set-up, then makes one in-process call of
detf5.cli.main, with the tracer installed when TRACE is 1, checks what the
call wrote (the basis against the oracle only when its digest is not
KNOWN), and reports its times, peak RSS, problems and, when traced, its
per-layer metrics.  Every result goes to OUT as JSON.

One process per call means every call starts as a user's `detf5` command
does: no caches or allocator state left over from an earlier call.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, check_leads, check_stats, check_verify, digest, instance_text, oracle_leads


def set_up(w, seed: int, work: Path) -> dict:
    import detf5.cli  # noqa: F401  the import is part of set-up

    files = w.files(work)
    files["instance"].write_text(instance_text(w, seed))
    return files


def _rusage():
    return resource.getrusage(resource.RUSAGE_SELF)


def one_call(w, files: dict, tracer=None) -> dict:
    """Run detf5.cli.main once; returns wall and CPU seconds, exit code,
    peak RSS, and problems (a traceback when the call raised)."""
    from detf5 import cli

    for key in ("output", "stats"):
        if key in files:
            files[key].unlink(missing_ok=True)
    argv = w.argv(files)
    rec = {"problems": []}
    ru0, t0 = _rusage(), time.perf_counter()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.call(cli.main, argv)
    except SystemExit as e:  # argparse rejects its arguments this way
        rc = e.code
    except Exception:
        rc = None
        rec["problems"].append(traceback.format_exc())
    t1, ru1 = time.perf_counter(), _rusage()
    rec["wall"] = t1 - t0
    rec["cpu"] = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    rec["peak_rss_mb"] = ru1.ru_maxrss / 1024
    rec["rc"] = rc
    if rc != 0:
        rec["problems"].append(f"exit code {rc}")
    return rec


def check(w, files: dict, oracle_path: Path, known: str) -> tuple:
    """(problems, totals) of the files one call wrote; totals sums the
    stats sidecar and holds the output digest.  The basis is compared with
    the oracle unless its digest is `known`, the digest of an output of
    this run that passed every check."""
    try:
        if w.command == "gb":
            problems, totals = check_stats(w, files)
        else:
            problems, totals = check_verify(w, files)
        totals["digest"] = digest(files)
        if w.command == "gb" and totals["digest"] != known:
            problems += check_leads(w, files, json.loads(oracle_path.read_text()))
        return problems, totals
    except (OSError, ValueError, KeyError):
        return [traceback.format_exc()], {}


def traced_metrics(w, spans: list, totals: dict) -> tuple:
    """Per-layer metrics of one traced call, and the problems found in the
    trace: self times that do not add up, more H skips than the sidecar's
    skips, or span counts that disagree with the sidecar."""
    from layers import call_metrics

    m, problems = call_metrics(spans)
    m["sig_gb.rows_skipped_f5"] = 0
    m["sig_gb.basis_size"] = 0
    if w.command == "gb":
        m["sig_gb.rows_skipped_f5"] = totals["rows_skipped"] - m["sig_gb.rows_skipped_h"]
        m["sig_gb.basis_size"] = totals["basis_size"]
        if m["sig_gb.rows_skipped_f5"] < 0:
            problems.append("more H skips than the sidecar's rows_skipped")
        for key in ("rows_built", "zero_reductions"):
            if m[f"sig_gb.{key}"] != totals[key]:
                problems.append(f"traced {key} {m[f'sig_gb.{key}']} != sidecar {totals[key]}")
    return m, problems


def write_spans(spans: list, path: Path):
    with open(path, "w") as fh:
        for i, (name, parent, t0, t1, attrs) in enumerate(spans):
            rec = {"id": i, "parent": parent, "name": name, "start": t0, "end": t1, "attrs": attrs}
            fh.write(json.dumps(rec) + "\n")


def call(w, seed: int, work: Path, t0: float, trace: bool, oracle_path: Path, known: str, spans: Path) -> dict:
    files = set_up(w, seed, work)
    setup_s = time.monotonic() - t0
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    rec = one_call(w, files, tracer)
    if tracer is not None:
        tracer.uninstall()
    rec["setup_s"] = setup_s
    totals = {}
    if not rec["problems"]:
        rec["problems"], totals = check(w, files, oracle_path, known)
        rec["digest"] = totals.get("digest")
    if tracer is not None:
        rec["trace_missing"] = tracer.missing
        if not rec["problems"]:
            rec["layers"], rec["problems"] = traced_metrics(w, tracer.spans, totals)
        write_spans(tracer.spans, spans)
    import numpy

    rec["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    return rec


def main(argv: list) -> int:
    role, name, seed, work, dest = argv[:5]
    w, seed, work = WORKLOADS[name], int(seed), Path(work)
    if role == "setup":
        set_up(w, seed, work)
        result = {"setup_s": time.monotonic() - float(argv[5])}
    elif role == "oracle":
        result = oracle_leads(w, set_up(w, seed, work)["instance"])
    else:
        trace, oracle, known = argv[6] == "1", Path(argv[7]), argv[8]
        spans = Path(dest).with_suffix(".spans.jsonl")
        result = call(w, seed, work, float(argv[5]), trace, oracle, known, spans)
    Path(dest).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
