"""qclone benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/qclone``.  The workload runs in a
fresh child interpreter with one thread (BLAS pools pinned to 1), which
imports qclone from ``src`` and drives it through ``qclone.cli.main`` and
the library functions.  This process never imports qclone: it generates
the inputs from the seed, checks every returned value against
reference.py and prints each metric by name with its unit.  The last line
of standard output is the JSON result.

--trace 0 reports the end-to-end metrics; --trace 1 wraps every public
qclone function in a span recorder and reports the per-layer metrics.
Scratch files go under .bench_build/perfbench/; the spans of the last
traced run of a workload stay there as trace-<workload>.npz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, HERE)

import check  # noqa: E402
import child  # noqa: E402
import workloads  # noqa: E402

#: a run must end within this many seconds.
RUN_LIMIT_S = 175.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    return env


def run_child(work: str, seconds: float, trace: int, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--round", os.path.join(work, "round.json"),
        "--out", work,
        "--seconds", repr(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("workload process ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"workload process exited with code {code}")
    with open(os.path.join(work, "summary.json")) as fh:
        return json.load(fh)


def verify(ops: list[dict], work: str) -> tuple[dict, list, list[str]]:
    """Outcome counts, the records and the reasons operations failed.

    A cli operation's last CSV is checked and every round's bytes must
    match it; a library result is checked once per distinct value, so a
    round that returns the same value again gets the same verdict.
    """
    with open(os.path.join(work, "records.jsonl")) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    verdicts = {}
    reasons = []
    for i, op in enumerate(ops):
        if op["op"] != "cli":
            continue
        with open(os.path.join(work, f"op{i:04d}.csv"), "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        verdict, why = check.cli_verdict(op, data.decode("ascii"))
        verdicts[i] = (digest, verdict)
        if why:
            reasons.append(f"op {i} {workloads.argv(op)}: {why}")
    counts = {"ok": 0, "fault": 0, "error": 0}
    seen: dict[tuple[int, str], str] = {}
    for rec in records:
        op = ops[rec["i"]]
        if op["op"] == "cli":
            digest, verdict = verdicts[rec["i"]]
            if rec.get("sha") != digest:
                verdict = "error"
                reasons.append(f"op {rec['i']} round {rec['r']}: bytes differ from the last round")
            result = check.outcome(op, rec, verdict)
        else:
            key = (rec["i"], json.dumps({k: v for k, v in rec.items() if k not in ("r", "t", "ref")}))
            if key not in seen:
                seen[key] = check.outcome(op, rec)
            result = seen[key]
            if result != "ok":
                reasons.append(f"op {rec['i']} round {rec['r']} ({op['op']}): {rec.get('error', 'mismatch')}")
        counts[result] += 1
    return counts, records, reasons


def end_to_end(summary: dict, records: list) -> dict:
    """Operation figures, stated for a host of a fixed reference speed.

    The host's speed swings by up to 1.6x in phases of seconds to minutes
    as other tenants load it, and a phase can last a whole run.  The child
    times a reference loop of its own just before and just after each
    operation, and a program call slows in step with it (README.md has the
    comparison).  So each time is read as a multiple of the reference time
    around it; an operation's figure is its median multiple over the run's
    rounds, times REFERENCE_LOOP_S.  Set-up probes are read the same way.
    """
    multiples: dict[int, list[float]] = {}
    for rec in records:
        multiples.setdefault(rec["i"], []).append(rec["t"] / rec["ref"])
    unit = child.REFERENCE_LOOP_S
    op_s = [statistics.median(m) * unit for m in multiples.values()]
    setup_s = statistics.median(p["t"] / p["ref"] for p in summary["setup"]) * unit
    return {
        "setup_s": (setup_s, "s"),
        "results_per_s": (summary["results_per_round"] / sum(op_s), "1/s"),
        "op_p50_s": (statistics.median(op_s), "s"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(summary: dict, records: list) -> dict:
    """Per-round layer figures: counts from the traced rounds, medians of times.

    Rounds alternate untraced and traced, so round 1 is the first traced one.
    """
    rounds = summary["layers"]
    rows = sum(rec.get("rows", 0) for rec in records if rec["r"] == 1)
    bytes_out = sum(rec.get("bytes", 0) for rec in records if rec["r"] == 1)
    results = summary["results_per_round"]

    def med(f):
        return statistics.median(f(r) for r in rounds)

    def calls(name):
        return rounds[0].get(name, {"calls": 0})["calls"]

    def layer(prefix, field):
        return lambda r: sum(v[field] for k, v in r.items() if k.startswith(prefix + "."))

    def per_call_us(name):
        n = calls(name)
        return med(lambda r: r[name]["total_s"]) / n * 1e6 if n else 0.0

    integrals = summary["integrals"][0]
    within = 0
    for what, tol, value, _ in integrals:
        want = check.mean_reference(what) if isinstance(what, str) else check.mean_reference("acm", *what)
        within += abs(value - want) <= tol
    quad_calls = calls("analysis.integrate_adaptive_simpson")
    evals = summary["quad_evals"][0]
    cli_self = med(layer("cli", "self_s"))
    metrics = {
        "qmath.hermitian_eigen.calls": (calls("qmath.hermitian_eigen"), "count"),
        "qmath.hermitian_eigen.us_per_call": (per_call_us("qmath.hermitian_eigen"), "us"),
        "qmath.matrix_sqrt_psd.calls": (calls("qmath.matrix_sqrt_psd"), "count"),
        "qmath.self_s": (med(layer("qmath", "self_s")), "s"),
        "entanglement.concurrence.calls": (calls("entanglement.concurrence"), "count"),
        "entanglement.concurrence.us_per_call": (per_call_us("entanglement.concurrence"), "us"),
        "entanglement.concurrence_per_result": (calls("entanglement.concurrence") / results, "ratio"),
        "entanglement.self_s": (med(layer("entanglement", "self_s")), "s"),
        "cloners.calls": (layer("cloners", "calls")(rounds[0]), "count"),
        "cloners.self_s": (med(layer("cloners", "self_s")), "s"),
        "states.calls": (layer("states", "calls")(rounds[0]), "count"),
        "states.self_s": (med(layer("states", "self_s")), "s"),
        "analysis.quad.integrals": (quad_calls, "count"),
        "analysis.quad.evals": (evals, "count"),
        "analysis.quad.evals_per_integral": (evals / quad_calls if quad_calls else 0.0, "count"),
        "analysis.self_s": (med(layer("analysis", "self_s")), "s"),
        "analysis.quad.within_tol_ratio": (within / len(integrals) if integrals else 1.0, "ratio"),
        "cli.self_s": (cli_self, "s"),
        "cli.us_per_row": (cli_self / rows * 1e6 if rows else 0.0, "us"),
        "cli.bytes_out": (bytes_out, "bytes"),
        "trace.overhead_ratio": (
            sum(summary["traced_round_s"]) / sum(summary["round_s"][: len(summary["traced_round_s"])]),
            "ratio",
        ),
    }
    # counts must repeat exactly from one traced round to the next
    for name in ("qmath.hermitian_eigen", "entanglement.concurrence"):
        if len({r.get(name, {"calls": 0})["calls"] for r in rounds}) != 1:
            raise RuntimeError(f"{name} call count changed between identical rounds")
    if len(set(summary["quad_evals"])) != 1:
        raise RuntimeError("quadrature evaluations changed between identical rounds")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qclone benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "qclone", "__init__.py")):
        print(f"perfbench: no qclone sources under {SRC}", file=sys.stderr)
        return 2
    ops = workloads.make_round(args.workload, args.seed)
    os.makedirs(SCRATCH, exist_ok=True)
    work = os.path.join(SCRATCH, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        with open(os.path.join(work, "round.json"), "w") as fh:
            json.dump(ops, fh)
        env = _child_env()
        summary = run_child(work, args.seconds, args.trace, env, deadline)
        counts, records, reasons = verify(ops, work)
        if args.trace:
            metrics = per_layer(summary, records)
            shutil.move(
                os.path.join(work, "spans.npz"),
                os.path.join(SCRATCH, f"trace-{args.workload}.npz"),
            )
        else:
            metrics = end_to_end(summary, records)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(records)
    failed = counts["fault"] + counts["error"]
    print(
        f"{args.workload} seed={args.seed} rounds={summary['rounds']} "
        f"ops/round={len(ops)} attempted={attempted} failed={failed} "
        f"(known fault {counts['fault']}, other {counts['error']}); "
        f"reference loop median {statistics.median(summary['reference_s']) * 1e3:.3f} ms "
        f"over {len(summary['reference_s'])} times"
    )
    for why in sorted(set(reasons))[:20]:
        print(f"  failed: {why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": counts["error"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
