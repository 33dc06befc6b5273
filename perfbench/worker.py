"""One workload in one fresh process; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode setup|run|trace [--passes K]

`setup` only sets up and reports the time it took.  `run` measures the
workload untraced; `trace` runs it with the layer hooks installed and
reports per-layer metrics.  With `--passes` a run makes exactly K passes
instead of filling S seconds.  The last line of stdout is one JSON
object.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: import, inputs, prebuilds

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "golden.json")
# Times are reported at reference speed: a 2-vCPU Intel Xeon VM at 2.1 GHz
# runs reference_time() in about this many seconds when it is not slowed.
REFERENCE_S = 0.0006
PROBE_PERIOD_S = 0.2


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def load_golden(name: str) -> dict[str, str]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh).get(name, {})


def reference_time() -> float:
    """Fastest of three runs of a fixed exact-fraction loop that does not
    touch kappatwist: how fast the machine runs this kind of work now."""
    from fractions import Fraction  # not at the top: set-up times kappatwist importing it

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 130):
            acc += Fraction(i, i + 1) * Fraction(3, 7)
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedProbe:
    """Reference timings taken during a request, from a timer signal every
    PROBE_PERIOD_S, so that speed changes inside a long request are seen.
    `spent` is the time the probes took, which is not the request's."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_time())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples.clear()
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def close(self) -> None:
        signal.signal(signal.SIGALRM, self._previous)


def measure(workload, on_pass, seconds: float, max_passes: int | None = None, span=None) -> dict:
    """Repeat passes over the workload's requests.  After each pass, out
    of the timed part, its (request, result) pairs go to `on_pass`.  A new
    pass starts while it is expected to end within `seconds` (there is
    always one), or until `max_passes`.  `span`, when given, is the
    tracer's span context manager.

    Each request's time is scaled to reference speed: raw time *
    REFERENCE_S / (mean of the reference timings taken just before, during
    and just after it)."""
    clock = time.perf_counter
    ops = workload.ops
    probe = SpeedProbe()
    scaled = [[] for _ in ops]  # per request, one time per pass
    pass_s, raw_pass_s = [], []
    longest = 0.0  # wall time of the longest pass, reference timings included, checks not
    started = clock()
    ref = reference_time()
    while True:
        p0 = clock()
        total = raw = 0.0
        results = []
        for i, op in enumerate(ops):
            probe.start()
            t0 = clock()
            try:
                if span is not None and op.span:
                    with span(op.span):
                        result = op.run()
                else:
                    result = op.run()
            except Exception as exc:  # a failed request is counted, not fatal
                result = exc
            finally:
                probe.stop()
            elapsed = clock() - t0 - probe.spent
            after = reference_time()
            refs = [ref, *probe.samples, after]
            scaled[i].append(elapsed * REFERENCE_S * len(refs) / sum(refs))
            total += scaled[i][-1]
            raw += elapsed
            ref = after
            results.append((op, result))
        pass_s.append(total)
        raw_pass_s.append(raw)
        longest = max(longest, clock() - p0)
        on_pass(results)
        del results
        if max_passes is not None:
            if len(pass_s) >= max_passes:
                break
        elif clock() - started + longest > seconds:
            break
    probe.close()
    return {
        "pass_s": pass_s,
        "raw_pass_s": raw_pass_s,
        "latencies_s": scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


class Checker:
    """Checks every request's output; a failed one counts, the run goes
    on.  Inputs with recorded output bytes must reproduce them exactly.
    A repeated request whose bytes match an earlier repetition shares its
    verdict."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self._verdicts: dict[tuple[str, str], str] = {}

    def add(self, op, result) -> None:
        self.attempted += 1
        if isinstance(result, Exception):
            self.failures.append(f"{op.key}: raised {result!r}")
            return
        try:
            d = digest(op.render(result))
            reason = self._verdicts.get((op.key, d))
            if reason is None:
                reason = op.verify(result)
                if not reason and self.golden.get(op.key, d) != d:
                    reason = "output bytes differ from the recorded ones"
                self._verdicts[op.key, d] = reason
        except Exception as exc:
            self.failures.append(f"{op.key}: check raised {exc!r}")
            return
        self.digests.setdefault(op.key, d)
        if reason:
            self.failures.append(f"{op.key}: {reason}")

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:10],
            "digests": self.digests,
        }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--passes", type=int, default=None)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    import kappatwist  # noqa: F401

    instr = None
    if args.mode == "trace":
        from layers import Instrumentation
        from spans import Tracer

        instr = Instrumentation(Tracer())
    workload = workloads.build(args.workload, args.seed)
    raw_setup_s = time.perf_counter() - T0
    # a process this young runs unevenly: take the median of a few timings
    setup_s = raw_setup_s * REFERENCE_S / statistics.median(reference_time() for _ in range(5))
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    checker = Checker(load_golden(args.workload))

    def check(results):
        for op, result in results:
            checker.add(op, result)

    if instr:  # the checks call kappatwist too: run them once the hooks are off
        kept = []
        m = measure(workload, kept.extend, args.seconds, args.passes, instr.tracer.span)
        instr.remove()
        check(kept)
    else:
        m = measure(workload, check, args.seconds, args.passes)
    out = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "pass_s": m["pass_s"],
        "raw_pass_s": m["raw_pass_s"],
        "latencies_ms": [[s * 1000 for s in times] for times in m["latencies_s"]],
        "peak_rss_mb": m["peak_rss_mb"],
    }
    out.update(checker.summary())
    if instr:
        out["per_layer"] = instr.per_layer(workload.check_seconds)
        out["spans"] = len(instr.tracer.name)
        if args.spans_out:
            instr.tracer.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
