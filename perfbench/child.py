"""Drives qclone through one workload in a fresh interpreter.

Reads the round written by run.py and repeats it until the run's time is
up, then stops at a round boundary.  Only the program calls are timed.
Each cli operation writes its CSV with ``--output`` to one file per
operation, overwritten every round; the sha256 of each round's bytes is
recorded, so run.py can check the last copy and that every round gave the
same bytes.  Library results go to the records as they come.

The host's speed is followed with a reference loop of the benchmark's own
(:func:`_reference_loop`), timed once before a round, after it, and
between operations whenever REFERENCE_EVERY_S has passed since the last
time.  Each record carries ``ref``, the mean of the reference times just
before and just after the operation, so run.py can read its time against
the host's speed at that moment.

With ``--trace 0``, a fresh interpreter times ``import qclone`` after
every round that ends a further 1/SETUP_PROBES of the run's length in, so
the set-up samples spread over the run as the host's speed changes; a
reference time is taken just before and just after each probe.  With
``--trace 1`` rounds alternate untraced and traced, so the ratio of their
times is the tracing overhead; the per-layer figures come from the traced
rounds.

Usage (from the checkout root, with src on PYTHONPATH):
    python3 perfbench/child.py --round ROUND.json --out DIR --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

import workloads

#: set-up samples a run aims for; the first comes after the first round.
SETUP_PROBES = 12
#: longest stretch of operations between two reference-loop samples.
REFERENCE_EVERY_S = 0.02
#: a fixed time unit close to the reference loop's median time (0.5-0.7 ms
#: per run) on the host the README's figures come from; run.py states
#: every time for a host on which the loop takes this long.
REFERENCE_LOOP_S = 0.00065
_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import qclone; "
    "print(repr(time.perf_counter() - t))"
)


def _setup_probe() -> float:
    """Seconds a fresh interpreter takes to finish ``import qclone``."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.split()[-1])


def _peak_rss_kb() -> int:
    """Peak resident memory of this process, in KiB.

    Linux keeps ``ru_maxrss`` across exec, so there it also holds the
    parent's resident size at the time it started this process; the
    high-water mark in /proc/self/status belongs to this process alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


_HADAMARD2 = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]).astype(np.complex128) / 2.0


def _reference_loop() -> float:
    # pure-Python complex arithmetic on nested lists, as in the Jacobi
    # rotations, plus a few small numpy products
    a = [[complex(i + 1, j) for j in range(4)] for i in range(4)]
    for _ in range(120):
        for p in range(3):
            for q in range(p + 1, 4):
                z = a[p][q]
                a[p][q] = 0.6 * z - 0.8j * a[q][p]
                a[q][p] = 0.8j * z + 0.6 * a[q][p]
    m = np.eye(4, dtype=np.complex128)
    for _ in range(40):
        m = (m @ _HADAMARD2).conj().T
    return abs(a[0][1]) + float(m[0, 0].real)


def _callables(ops: list[dict], out_dir: str) -> list:
    """One zero-argument call per operation; inputs are built beforehand."""
    import qclone
    import qclone.cli

    calls = []
    for i, op in enumerate(ops):
        if op["op"] == "cli":
            path = os.path.join(out_dir, f"op{i:04d}.csv")
            argv = workloads.argv(op) + ["--output", path]
            calls.append(lambda argv=argv: sys.modules["qclone.cli"].main(argv))
        elif op["op"] == "concurrence":
            rho = workloads.from_pairs(op["rho"]).reshape(4, 4)
            calls.append(lambda rho=rho: qclone.concurrence(rho))
        elif op["op"] == "partial_trace":
            coeffs = workloads.from_pairs(op["coeffs"])
            sub = op["subsystem"]
            calls.append(
                lambda c=coeffs, sub=sub: qclone.partial_trace(qclone.wzcm_full_output(c), sub)
            )
        else:
            raise ValueError(f"unknown operation {op['op']!r}")
    return calls


def _payload(op: dict, i: int, result, out_dir: str) -> dict:
    """What run.py needs to check one operation; read after the timer stops."""
    if op["op"] == "cli":
        path = os.path.join(out_dir, f"op{i:04d}.csv")
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return {"rc": result, "sha": None, "rows": 0, "bytes": 0}
        rows = sum(1 for line in data.split(b"\n") if line and not line.startswith(b"#")) - 1
        return {
            "rc": result,
            "sha": hashlib.sha256(data).hexdigest(),
            "rows": rows,
            "bytes": len(data),
        }
    if op["op"] == "concurrence":
        return {
            "c": result.concurrence,
            "eof": result.eof,
            "lambdas": list(result.lambdas),
            "method": result.method,
        }
    m = np.asarray(result)
    return {"re": m.real.reshape(-1).tolist(), "im": m.imag.reshape(-1).tolist()}


def _reference_time(reference: list, waiting: list) -> float:
    """Time the reference loop once; it is the time after each waiting record.

    The loop runs once untimed first, so the time is not that of caches the
    program left cold.
    """
    _reference_loop()
    t0 = time.perf_counter()
    _reference_loop()
    t = time.perf_counter() - t0
    reference.append(t)
    for rec in waiting:
        rec["ref"] = 0.5 * (rec["ref"] + t)
    waiting.clear()
    return t


def _run_round(ops, calls, out_dir, records, round_no, reference) -> tuple[int, float]:
    """Run every operation once, timing the reference loop between them.

    Appends the reference times to ``reference``.  Returns how many values
    the operations returned and the time they took, without the reference
    loops.
    """
    clock = time.perf_counter
    results = 0
    busy = 0.0
    done = []
    waiting = []
    before = _reference_time(reference, waiting)
    last_reference = clock()
    for i, (op, call) in enumerate(zip(ops, calls)):
        if clock() - last_reference >= REFERENCE_EVERY_S:
            before = _reference_time(reference, waiting)
            last_reference = clock()
        error = None
        t0 = clock()
        try:
            result = call()
        except Exception as exc:  # a failing operation is counted, not fatal
            t1 = clock()
            result = None
            error = f"{type(exc).__name__}: {exc}"
        else:
            t1 = clock()
        busy += t1 - t0
        rec = {"r": round_no, "i": i, "t": t1 - t0, "ref": before}
        if error is not None:
            rec["error"] = error
        else:
            rec.update(_payload(op, i, result, out_dir))
            results += rec.get("rows", 1)
        waiting.append(rec)
        done.append(rec)
    _reference_time(reference, waiting)
    records.write("\n".join(json.dumps(rec) for rec in done) + "\n")
    records.flush()
    return results, busy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--round", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(args.round) as fh:
        ops = json.load(fh)
    calls = _callables(ops, args.out)
    summary: dict = {"rounds": 0, "round_s": [], "setup": [], "reference_s": []}
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        summary.update(traced_round_s=[], layers=[], integrals=[], quad_evals=[])

    start = time.perf_counter()
    with open(os.path.join(args.out, "records.jsonl"), "w") as records:
        while True:
            for traced in (False, True) if args.trace else (False,):
                patched = spans.install(recorder) if traced else None
                first_span = len(recorder) if traced else 0
                evals_before = recorder.quad_evals if traced else 0
                integrals_before = len(recorder.integrals) if traced else 0
                results, elapsed = _run_round(
                    ops, calls, args.out, records, summary["rounds"], summary["reference_s"]
                )
                summary["rounds"] += 1
                if traced:
                    spans.uninstall(patched)
                    summary["traced_round_s"].append(elapsed)
                    summary["layers"].append(recorder.summary(first_span, len(recorder)))
                    summary["integrals"].append(recorder.integrals[integrals_before:])
                    summary["quad_evals"].append(recorder.quad_evals - evals_before)
                else:
                    summary["round_s"].append(elapsed)
                summary["results_per_round"] = results
            if not args.trace:
                due = len(summary["setup"]) * args.seconds / SETUP_PROBES
                if time.perf_counter() - start >= due:
                    probe = {"ref": _reference_time(summary["reference_s"], [])}
                    probe["t"] = _setup_probe()
                    _reference_time(summary["reference_s"], [probe])
                    summary["setup"].append(probe)
            spent = time.perf_counter() - start
            step = spent / (summary["rounds"] // (2 if args.trace else 1))
            # stop at the round boundary nearest the requested length
            if spent + 0.5 * step >= args.seconds:
                break

    if recorder is not None:
        recorder.save(os.path.join(args.out, "spans.npz"))
    summary["peak_rss_kb"] = _peak_rss_kb()
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
