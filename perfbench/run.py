"""Run one detf5 benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Works from a plain source checkout: detf5 is imported from src/ next to
this directory, nothing is installed.  The launcher pins the BLAS/OpenMP
thread count to 1 and runs everything in fresh worker processes
(child.py): the lazard_gb oracle when the oracle cache misses, then one
process per CLI call, back to back (closed loop, one client), then
set-up-only processes until there are SETUP_SAMPLES set-up timings.  So
peak RSS belongs to one call of the workload, and no call inherits caches
from another.  Files go under .perfbench_work/ in the checkout.

The last line of standard output is one JSON object: correct, attempted,
failed, and the end-to-end metrics (trace 0) or the per-layer metrics
(trace 1).  The lines before it give every metric by name and unit, the
output digests, the failure ratio and the run environment, which is also
written to result.json in the run's work directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import WORKLOADS, instance_text, oracle_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 9  # at least this many set-up timings per run, calls included
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = {"solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
DEADLINE_S = 170  # the whole run, workers included


class BenchError(RuntimeError):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def _l3_size() -> str:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level") == "3":
            return _read(index / "size")
    return "unknown"


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def environment() -> dict:
    return {
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "python": sys.version.split()[0],
    }


class Launcher:
    def __init__(self, args):
        self.w = WORKLOADS[args.workload]
        self.args = args
        self.work = WORK / f"{args.workload}-trace{args.trace}"  # replaced by each run
        self.deadline = time.monotonic() + DEADLINE_S
        self.known = "-"  # digest of a checked output; its repeats skip the oracle compare
        self.env = {
            **os.environ,
            **THREADS,
            "PYTHONHASHSEED": "0",
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        }

    def child(self, role: str, out: str, *extra) -> object:
        """Run child.py in a fresh process and return the JSON it wrote."""
        path = self.work / out
        argv = [sys.executable, str(Path(__file__).with_name("child.py")), role, self.w.name,
                str(self.args.seed), str(self.work), str(path)]
        argv += [str(e) for e in extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left for the {role} process")
        try:
            proc = subprocess.run(argv, env=self.env, timeout=timeout, stdout=sys.stderr)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{role} process still running at the deadline; killed") from None
        if proc.returncode != 0:
            raise BenchError(f"{role} process exited with code {proc.returncode}")
        return json.loads(path.read_text())

    def oracle(self) -> Path:
        """Lead monomials of lazard_gb on this instance, computed once per
        instance and program version."""
        key = oracle_key(self.w, instance_text(self.w, self.args.seed), SRC)
        path = WORK / "oracle" / f"{key}.json"
        if not path.exists():
            leads = self.child("oracle", "oracle.json")
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(leads))
            tmp.replace(path)
        return path

    def calls(self, seconds: float, traced: bool, oracle) -> list:
        """Back-to-back calls, one fresh process each, until one more would
        likely take the calls' total wall time past `seconds`; at least one
        call.  Process start and output checks are not counted, so a
        workload's call count does not depend on how long its check takes."""
        calls = []
        while True:
            out = f"call-{'traced' if traced else 'plain'}-{len(calls)}.json"
            rec = self.child("call", out, time.monotonic(), int(traced), oracle, self.known)
            calls.append({**rec, "traced": traced})
            if not rec["problems"] and self.known == "-":
                self.known = rec["digest"]
            spent = sum(c["wall"] for c in calls)
            if spent * (len(calls) + 1) / len(calls) > seconds:
                return calls

    def run(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        env = environment()
        env["loadavg_before"] = _read("/proc/loadavg")
        oracle = self.oracle() if self.w.command == "gb" else ""
        seconds = self.args.seconds
        if self.args.trace:
            calls = self.calls(seconds / 2, False, oracle) + self.calls(seconds / 2, True, oracle)
        else:
            calls = self.calls(seconds, False, oracle)
        setups = [c["setup_s"] for c in calls]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.child("setup", "setup.json", time.monotonic())["setup_s"])
        env["loadavg_after"] = _read("/proc/loadavg")
        env.update(calls[0]["versions"])
        return {"environment": env, "setup_samples": setups, "calls": calls}


def tail_percentile(values: list):
    """(p, value) for the highest whole percentile with at least ten
    samples above it, or None when there are too few samples."""
    n = len(values)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p < 1:
        return None
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def report(args, res: dict) -> dict:
    """Print every metric by name and unit, then return the result object."""
    calls = res["calls"]
    plain = [c for c in calls if not c["traced"]]
    failed = sum(1 for c in calls if c["problems"])
    problems = [p for c in calls for p in c["problems"]]
    walls = [c["wall"] for c in plain]
    if args.trace:
        from layers import UNITS, summarize

        traced = [c for c in calls if c["traced"]]
        values = {}
        if not failed:
            values, more = summarize([c["layers"] for c in traced], walls, [c["wall"] for c in traced])
            problems += more
        units = UNITS
    else:
        values = {
            "solve_s": median(walls),
            "cpu_s": median(c["cpu"] for c in plain),
            "peak_rss_mb": median(c["peak_rss_mb"] for c in plain),
            "setup_s": median(res["setup_samples"]),
        }
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    print("environment " + json.dumps(res["environment"]))
    digests = [c.get("digest") for c in calls]
    for d in sorted(set(filter(None, digests))):
        print(f"output digest {d[:16]} on {digests.count(d)} of {len(calls)} calls")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    tail = tail_percentile(walls)
    tail_text = f"p{tail[0]} = {tail[1]!r} s" if tail else "no percentile has ten samples above it"
    print(f"untraced calls = {len(walls)}; {tail_text}")
    print(f"fail_ratio = {failed / len(calls)!r} ({failed} of {len(calls)} calls failed)")
    missing = sorted({m for c in calls for m in c.get("trace_missing", [])})
    if missing:
        print("not traced (absent from detf5): " + ", ".join(missing))
    for p in problems:
        print("problem: " + p.rstrip().replace("\n", "\n    "))
    return {"correct": not problems, "attempted": len(calls), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "detf5" / "cli.py").is_file():
        print(f"perfbench: detf5 sources not found under {SRC}", file=sys.stderr)
        return 2
    launcher = Launcher(args)
    try:
        res = launcher.run()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    result = report(args, res)
    (launcher.work / "result.json").write_text(json.dumps({**res, "result": result}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
