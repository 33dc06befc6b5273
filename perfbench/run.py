"""kappatwist benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every workload runs in fresh
single-threaded Python processes (perfbench/worker.py), one client in a
closed loop.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced run; both print one line per metric with
its unit and sample count, then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A results file goes to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
DEADLINE_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 7  # fresh processes whose set-up is timed; the median is reported
MIN_BEYOND = 10  # a percentile is backed when at least this many samples lie above it
TRACE_PASSES = 2  # a traced run makes a fixed number of passes, so its counts can repeat

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
}


class BenchError(RuntimeError):
    pass


def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile of the samples, and how many lie above it."""
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    rank = max(1, math.ceil(q * len(xs)))
    return xs[rank - 1], len(xs) - rank


def percentile_note(samples, q: float) -> str:
    _, beyond = percentile(samples, q)
    note = f"n={len(samples)}, {beyond} above"
    if beyond < MIN_BEYOND:
        note += f"; fewer than {MIN_BEYOND} above, so it is the top of a small sample"
    return note


def _worker(workload: str, seed: int, seconds: int, mode: str, deadline: float, *extra) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
        *extra,
    ]
    # a fixed hash seed makes set and dict order, and so the traced
    # counts, repeat from one process to the next
    env = dict(os.environ, PYTHONHASHSEED="0")
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=left
        )
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        raise BenchError(f"{mode} worker for {workload} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    probes = [_worker(workload, seed, seconds, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = _worker(workload, seed, seconds, "run", deadline)
    setups = [p["setup_s"] for p in probes] + [run["setup_s"]]
    raw_setups = [p["raw_setup_s"] for p in probes] + [run["raw_setup_s"]]
    passes = len(run["pass_s"])
    lat = [statistics.median(times) for times in run["latencies_ms"]]  # one per request
    metrics = {
        "wall_s": statistics.median(run["pass_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "req_per_s": run["attempted"] / sum(run["pass_s"]),
        "req_p50_ms": percentile(lat, 0.5)[0],
        "req_p90_ms": percentile(lat, 0.9)[0],
    }
    notes = {
        "wall_s": f"median of {passes} passes; unscaled {statistics.median(run['raw_pass_s']):.4g} s",
        "setup_s": f"median of {len(setups)} fresh processes; unscaled {statistics.median(raw_setups):.4g} s",
        "peak_rss_mb": "ru_maxrss of the measuring process",
        "req_per_s": f"{run['attempted']} requests",
        "req_p50_ms": percentile_note(lat, 0.5) + f"; each a median of {passes}",
        "req_p90_ms": percentile_note(lat, 0.9) + f"; each a median of {passes}",
    }
    samples = {"passes": passes, "requests": len(lat), "setups": len(setups)}
    return {
        "units": END_TO_END,
        "metrics": metrics,
        "notes": notes,
        "samples": samples,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "problems": [],
    }


def traced(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    """An untraced run, then two traced runs of the same seed.  The traced
    outputs must equal the untraced ones and the counts must repeat."""
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans.json")
    passes = ("--passes", str(TRACE_PASSES))
    plain = _worker(workload, seed, seconds, "run", deadline, *passes)
    first = _worker(workload, seed, seconds, "trace", deadline, *passes, "--spans-out", spans_path)
    second = _worker(workload, seed, seconds, "trace", deadline, *passes)
    units = layers.metric_units()
    metrics = dict(first["per_layer"])
    metrics["trace.overhead_ratio"] = statistics.median(first["pass_s"]) / statistics.median(plain["pass_s"])
    problems = [
        f"count {name} differs between traced runs: {first['per_layer'][name]} vs {second['per_layer'][name]}"
        for name in first["per_layer"]
        if layers.is_count(name) and first["per_layer"][name] != second["per_layer"][name]
    ]
    for other, label in ((plain, "untraced"), (second, "second traced")):
        for key, d in first["digests"].items():
            if key in other["digests"] and other["digests"][key] != d:
                problems.append(f"traced output differs from the {label} run for {key}")
    return {
        "units": units,
        "metrics": metrics,
        "notes": {"trace.overhead_ratio": f"median of {TRACE_PASSES} traced / untraced passes"},
        "samples": {"passes": len(first["pass_s"]), "requests": first["attempted"], "spans": first["spans"]},
        "attempted": first["attempted"],
        "failed": first["failed"],
        "failures": first["failures"],
        "problems": problems,
        "spans_file": os.path.relpath(spans_path, ROOT),
    }


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def render(workload: str, res: dict) -> list[str]:
    lines = [f"workload {workload}"]
    for name, unit in res["units"].items():
        note = res["notes"].get(name, "")
        lines.append(
            f"  {name:<52} {res['metrics'][name]:>14.6g} {unit:<6}" + (f" ({note})" if note else "")
        )
    rate = res["failed"] / res["attempted"]
    lines.append(
        f"  {'error_rate':<52} {rate:>14.6g} {'ratio':<6} "
        f"({res['failed']} failed of {res['attempted']} requests)"
    )
    for text in res["failures"] + res["problems"]:
        lines.append(f"  ! {text}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kappatwist", "__init__.py")):
        print(f"error: no kappatwist sources under {ROOT}/src", file=sys.stderr)
        return 2

    started = time.monotonic()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    measure = traced if args.trace else end_to_end
    info = {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            res = measure(name, args.seed, args.seconds, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results[name] = res
        print("\n".join(render(name, res)), flush=True)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump({"workload": name, **info, **res}, fh, indent=1, sort_keys=True)

    summary = {
        "correct": all(not r["failed"] and not r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (m if len(names) == 1 else f"{n}/{m}"): {"value": r["metrics"][m], "unit": unit}
            for n, r in results.items()
            for m, unit in r["units"].items()
        },
    }
    print(f"elapsed {time.monotonic() - started:.1f} s")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
