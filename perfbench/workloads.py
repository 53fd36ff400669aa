"""The benchmark's workloads: the instance each one generates from a seed,
the detf5 CLI call it makes, and the checks on that call's output.

Importing this module loads neither numpy nor detf5, so the launcher can
use it; detf5 is imported inside the functions that need it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path

PRIME = 65521


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # detf5 subcommand: "gb" or "verify"
    kind: str  # "matrix" (maximal minors) or "system" (critical points)
    n: int
    p: int
    q: int  # matrix columns; a system's Jacobian has n columns
    d0: int
    D: int  # degree bound, passed explicitly so the work done is pinned

    def argv(self, files: dict) -> list:
        args = [self.command, str(files["instance"]), "--degree-bound", str(self.D)]
        args += ["--output", str(files["output"])]
        if self.command == "gb":
            args += ["--stats", str(files["stats"])]
        return args

    def files(self, work: Path) -> dict:
        """Instance and output paths of one run; outputs are rewritten by
        every call."""
        out = {"instance": work / "instance.txt", "output": work / "output.txt"}
        if self.command == "gb":
            out["stats"] = work / "output.stats.jsonl"
        return out


# Why each workload is here and which pending change it should move is
# recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("minors_ref", "gb", "matrix", 4, 3, 6, 3, 15),
        Workload("crit_sat", "gb", "system", 4, 2, 4, 3, 19),
        Workload("minors_wide", "gb", "matrix", 5, 3, 7, 3, 12),
        Workload("verify_full", "verify", "matrix", 4, 3, 6, 3, 15),
    )
}


# ---------------------------------------------------------------------------
# instances


def monomials(n: int, d: int) -> list:
    """Exponent tuples of every degree-d monomial in n variables."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        exps = [0] * n
        for j in combo:
            exps[j] += 1
        out.append(tuple(exps))
    return out


def _mono_text(m: tuple) -> str:
    return "*".join(f"x{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(m) if e)


def instance_text(w: Workload, seed: int) -> str:
    """Instance file contents: dense random forms with nonzero coefficients.

    The generator is the benchmark's own, so a change to detf5's instance
    code cannot change the inputs.  Workloads of one shape share their
    instance for a given seed.
    """
    rng = random.Random(f"{w.kind}:{w.n},{w.p},{w.q},{w.d0}:{seed}")
    mons = monomials(w.n, w.d0)

    def form() -> str:
        return " + ".join(f"{rng.randrange(1, PRIME)}*{_mono_text(m)}" for m in mons)

    lines = [f"prime {PRIME}", f"nvars {w.n}"]
    if w.kind == "matrix":
        lines.append(f"matrix {w.p} {w.q} degree {w.d0}")
        lines += [form() for _ in range(w.p * w.q)]
    else:
        lines.append(f"system {w.p} degree {w.d0}")
        lines += [form() for _ in range(w.p + 1)]  # g, then f_1..f_p
    return "\n".join(lines) + "\n"


def oracle_key(w: Workload, text: str, src: Path) -> str:
    """Cache key of the oracle: the instance, the degree bound and every
    detf5 source file, so an edited program never reuses a stale oracle."""
    h = hashlib.sha256(f"{w.kind}:{w.D}\n{text}".encode())
    for path in sorted(src.glob("detf5/*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def oracle_leads(w: Workload, instance: Path) -> list:
    """Lead monomials of the criterion-free lazard_gb run on the instance,
    sorted, as lists of exponents."""
    import detf5

    inst = detf5.read_instance(str(instance))
    if w.kind == "matrix":
        gens = detf5.minors(inst.matrix, inst.p)
        degrees = [inst.p * inst.d0] * len(gens)
    else:
        jac = detf5.CritSystem.build(inst.g, inst.F).jac
        minors = detf5.minors(jac, inst.p + 1)
        gens = list(inst.F) + minors
        degrees = [inst.d0] * inst.p + [(inst.p + 1) * jac.entry_degree] * len(minors)
    gb = detf5.lazard_gb(gens, w.D, degrees=degrees)
    leads = []
    for idx, mono in gb.lm_set():
        if idx != 0:
            raise ValueError(f"oracle lead at module position {idx!r}, expected 0")
        leads.append(list(mono))
    return sorted(leads)


# ---------------------------------------------------------------------------
# output checks


def digest(files: dict) -> str:
    """sha256 over every output file of a call, in a fixed order."""
    h = hashlib.sha256()
    for key in ("output", "stats"):
        if key in files:
            h.update(key.encode() + b"\0" + Path(files[key]).read_bytes())
    return h.hexdigest()


def mono_count(n: int, d: int) -> int:
    return math.comb(n + d - 1, n - 1) if d >= 0 else 0


def generator_degrees(w: Workload) -> list:
    if w.kind == "matrix":
        return [w.p * w.d0] * math.comb(w.q, w.p)
    minor_deg = (w.p + 1) * (w.d0 - 1)  # Jacobian entries have degree d0 - 1
    return [w.d0] * w.p + [minor_deg] * math.comb(w.n, w.p + 1)


def predicted_rank(w: Workload, d: int) -> int:
    """Rank of the degree-d matrix of a generic instance, from hilbert.py."""
    from detf5 import hilbert

    if w.kind == "matrix":
        return hilbert.hf_minors_ideal(w.n, w.p, w.q, w.d0, d)
    return mono_count(w.n, d) - hilbert.hf_crit(w.n, w.p, w.d0, d, "derived")


def check_stats(w: Workload, files: dict) -> tuple:
    """Check the stats sidecar of one `gb` call.  Returns (problems,
    totals): problems is empty when every check passed; totals sums the
    sidecar and counts the basis elements.

    Checks: every degree's rank equals the hilbert.py prediction, every
    candidate row was either built or skipped, every built row became a
    pivot or reduced to zero, and degrees run contiguously from the lowest
    generator degree and stop before D only once the quotient is zero.
    """
    problems = []
    degrees = generator_degrees(w)
    stats = [json.loads(ln) for ln in Path(files["stats"]).read_text().splitlines() if ln]
    totals = {"rows_built": 0, "rows_skipped": 0, "zero_reductions": 0}
    expected_d = min(degrees)
    for st in stats:
        d = st["d"]
        if d != expected_d:
            problems.append(f"stats: degree {d} where {expected_d} was expected")
            break
        expected_d += 1
        for key in totals:
            totals[key] += st[key]
        candidates = sum(mono_count(w.n, d - deg) for deg in degrees)
        if st["rows_built"] + st["rows_skipped"] != candidates:
            problems.append(f"d={d}: built + skipped != {candidates} candidates")
        if st["rows_built"] != st["rank"] + st["zero_reductions"]:
            problems.append(f"d={d}: built != rank + zero reductions")
        pred = predicted_rank(w, d)
        if st["rank"] != pred:
            problems.append(f"d={d}: rank {st['rank']} != predicted {pred}")
    last = expected_d - 1
    if last < w.D and (not stats or stats[-1]["rank"] != mono_count(w.n, last)):
        problems.append(f"stats stop at degree {last} before the quotient is zero")
    totals["basis_size"] = len(Path(files["output"]).read_text().splitlines())
    return problems, totals


def check_leads(w: Workload, files: dict, oracle: list) -> list:
    """Problems with the basis one `gb` call wrote: every element must have
    a unit leading coefficient, and the leading monomials must be exactly
    the oracle's."""
    from detf5 import PrimeField, parse_poly

    field = PrimeField(PRIME)
    problems, leads = [], []
    for line in Path(files["output"]).read_text().splitlines():
        f = parse_poly(line, w.n, field)
        if f.lc() != 1:
            problems.append(f"leading coefficient {f.lc()} != 1")
        leads.append(list(f.lm()))
    if sorted(leads) != oracle:
        missing = len({tuple(m) for m in oracle} - {tuple(m) for m in leads})
        problems.append(
            f"lead monomials differ from the oracle: {len(leads)} elements, "
            f"{len(oracle)} oracle leads, {missing} oracle leads missing"
        )
    return problems


_ROW_RE = re.compile(r"^((?:\d+\s+)+)(yes|NO)$")


def check_verify(w: Workload, files: dict) -> tuple:
    """Check one `verify` call on a minors instance: one rank row per degree
    p*d0..D reading (columns, rank, predicted rank) with the generic column
    count and the hilbert.py rank, and one |H| row per shift 0..D-p*d0
    reading (measured, predicted) with the predicted count, all marked yes."""
    from detf5 import hilbert

    tables, table = {"d": {}, "delta": {}}, None
    for line in Path(files["output"]).read_text().splitlines():
        head = line.split(" ", 1)[0]
        if head in tables:
            table = tables[head]
        elif table is not None and (m := _ROW_RE.match(line.strip())):
            key, *values = (int(x) for x in m.group(1).split())
            table[key] = (*values, m.group(2) == "yes")
    base = w.p * w.d0
    want = {"d": {}, "delta": {}}
    for d in range(base, w.D + 1):
        rank = predicted_rank(w, d)
        want["d"][d] = (mono_count(w.n, d), rank, rank, True)
    for t in range(w.D - base + 1):
        size = hilbert.syzygy_count(w.n, w.p, w.q, w.d0, t + base)
        want["delta"][t] = (size, size, True)
    problems = [
        f"{name} row {key}: read {tables[name].get(key)}, expected {row}"
        for name, rows in want.items()
        for key, row in rows.items()
        if tables[name].get(key) != row
    ]
    problems += [
        f"{name} row {key} is not expected"
        for name in want
        for key in tables[name].keys() - want[name].keys()
    ]
    return problems, {}
