"""scaleseg benchmark: one workload, one closed-loop client, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload stream-30k --seed 11 --seconds 25 --trace 0

Workloads are defined in workloads.py: stream-30k, train-8k and tiles.
Each run sets up the workload several times (the median is setup_s),
then sends one request at a time for --seconds, checks every output,
and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with no hook but the
decode timer that marks the first labels:

  first_pred_ms.p50  request start until the first labels exist: scale 1's
                     decode returns (stream-30k, tiles), or the first
                     training forward's decode returns (train-8k)
  request_ms.p50     request wall time: the final prediction on stream-30k,
  request_ms.p90     one tile on tiles, one train_scale call on train-8k
  requests_per_s     timed requests / their summed wall time
  setup_s            median of SETUP_REPEATS set-ups, each a fresh
                     interpreter importing scaleseg plus building the
                     workload's scenes and models

With --trace 1 requests alternate untraced and traced; the metrics are
the per-layer ones from spans.py (per-request means over the traced
requests), the tracing overhead (traced minus untraced request time)
and the resident memory per untraced request. Memory is not an
end-to-end metric: on stream-30k the mean resident set moved by 17%
(quartile spread over nine seeds) with how the scale threads overlapped
and how much freed memory the allocator kept, too much for a bound.

A request that raises or fails a check counts as failed, so the error
rate is failed / attempted. The line before the result is a JSON run
record: machine, versions, backend, seed, request counts, output
digests and warnings.

The program under test is imported from the src/ directory next to
this one; without it the benchmark exits with code 2 and no result.
"""

import os

# One BLAS thread, set before numpy loads: the same setting on every
# commit, and the pipeline's scale threads stay the only parallelism.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import faulthandler  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
WARMUP_S = 2.0
RSS_INTERVAL_S = 0.01
WATCHDOG_SLACK_S = 150
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import scaleseg"
# build_partitions warns on these inputs: at these densities the finer
# scales find fewer free voxels. It is a property of the input, not a fault.
EXPECTED_WARNING = "are not strictly increasing"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input, for the smoke check")
    return ap.parse_args(argv)


def import_seconds():
    """Wall time of a fresh interpreter that imports scaleseg."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                   check=True, timeout=60)
    return time.perf_counter() - t0


class RssSampler:
    """Per-request peak and mean resident set size, sampled by a child.

    Traced runs only, so untraced timings run without a sampler.
    A sampler thread in this process takes the interpreter lock at every
    sample; every 2 ms that slowed the tiles workload by about a third.
    rss_sampler.py samples from outside, every RSS_INTERVAL_S.
    """

    def __init__(self):
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("rss_sampler.py")),
             str(os.getpid()), str(RSS_INTERVAL_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def _ask(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().strip()
        if not reply or reply.startswith("error"):
            raise RuntimeError(f"rss sampler: {reply or 'exited'}")
        return reply

    def reset(self):
        self._ask("reset")

    def stats_mb(self):
        """(peak, mean) resident MB since the last reset."""
        peak, mean = self._ask("stats").split()
        return int(peak) / 2**20, float(mean) / 2**20


def setup(cls, seed, tiny):
    """Build the workload SETUP_REPEATS times; keep the first build."""
    totals, workload = [], None
    for _ in range(2 if tiny else SETUP_REPEATS):
        imp = import_seconds()
        t0 = time.perf_counter()
        w = cls(seed, tiny)
        totals.append(imp + time.perf_counter() - t0)
        workload = workload or w
    return workload, statistics.median(totals)


def measure(workload, seconds, trace, rss):
    """Closed loop: the next request starts only when the last one returned.

    Requests for the first WARMUP_S, checked but not timed, go first: the
    first request of a process pays for page faults that later ones do not.
    """
    from spans import Tracer
    from workloads import DecodeHook

    hook = DecodeHook(workload.hook_owner)
    tracer = Tracer() if trace else None
    runs = {"untraced": [], "traced": []}
    first_ms, memory, sizes = [], [], {}
    attempted = failed = 0

    def request(traced):
        """Serve one request; (ms, first-labels ms, memory) or None if it failed."""
        nonlocal attempted, failed
        attempted += 1
        args = workload.prepare()
        gc.collect()
        hook.reset()
        if rss:
            rss.reset()
        if traced:
            tracer.install()
            t0 = tracer.begin_request(attempted)
        else:
            t0 = time.perf_counter()
        try:
            out = workload.call(args)
            t1 = time.perf_counter()
        except Exception:
            traceback.print_exc()
            failed += 1
            return None
        finally:
            if traced:
                tracer.end_request(t0)
                tracer.uninstall()
        mem = rss.stats_mb() if rss else None
        problems, t_first, sizes[attempted] = workload.check(args, out, hook.calls)
        for p in problems:
            print(f"{workload.name}: {p}", file=sys.stderr)
        if problems:
            failed += 1
            return None
        return (t1 - t0) * 1e3, (t_first - t0) * 1e3, mem

    hook.install()
    try:
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < WARMUP_S:
            request(False)
        warm = attempted
        t_start = time.perf_counter()
        while True:
            # a traced run needs one good request of each kind, unless
            # requests fail, which already makes the run incorrect
            done = failed or not trace or (runs["untraced"] and runs["traced"])
            if attempted > warm and done and time.perf_counter() - t_start >= seconds:
                break
            traced = trace and attempted % 2 == 0
            timed = request(traced)
            if timed:
                runs["traced" if traced else "untraced"].append(timed[0])
                if not traced:
                    first_ms.append(timed[1])
                    memory.append(timed[2])
    finally:
        hook.uninstall()
    late = workload.finish()
    for p in late:
        print(f"{workload.name}: {p}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed + len(late), "runs": runs,
            "first_ms": first_ms, "sizes": sizes, "memory": memory,
            "spans": tracer.spans if trace else None}


def end_to_end(m, setup_s):
    lat = m["runs"]["untraced"]
    return {
        "first_pred_ms.p50": (statistics.median(m["first_ms"]), "ms"),
        "request_ms.p50": (statistics.median(lat), "ms"),
        "request_ms.p90": (statistics.quantiles(lat, n=10, method="inclusive")[8]
                           if len(lat) > 1 else lat[0], "ms"),
        "requests_per_s": (len(lat) / (sum(lat) / 1e3), "1/s"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(m, workload):
    from spans import LAYER_UNITS, layer_metrics

    values = layer_metrics(m["spans"], m["sizes"], workload.expected_spans)
    plain = statistics.median(m["runs"]["untraced"])
    overhead = statistics.median(m["runs"]["traced"]) - plain
    values["trace.overhead_ms"] = overhead
    values["trace.overhead_ratio"] = overhead / plain
    values["memory.peak_rss_mb"] = statistics.median(p for p, _ in m["memory"])
    values["memory.mean_rss_mb"] = statistics.median(a for _, a in m["memory"])
    return {k: (values[k], LAYER_UNITS[k]) for k in LAYER_UNITS}


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "scaleseg").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _warning_summary(caught):
    expected, other = Counter(), Counter()
    for w in caught:
        text = re.sub(r"\[[^\]]*\]", "[...]", str(w.message))
        key = f"{w.category.__name__}: {text}"
        (expected if EXPECTED_WARNING in text else other)[key] += 1
    for key in other:
        print(f"unexpected warning: {key}", file=sys.stderr)
    return {"expected": dict(expected), "unexpected": dict(other)}


def main(argv=None):
    args = parse_args(argv)
    faulthandler.dump_traceback_later(args.seconds + WATCHDOG_SLACK_S, exit=True)
    sys.path.insert(0, str(SRC))
    try:
        import scaleseg
    except ImportError as exc:
        print(f"cannot import scaleseg from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(scaleseg.__file__).resolve().parent != SRC / "scaleseg":
        print(f"scaleseg was imported from {scaleseg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import numpy as np
    from scaleseg._kernels import backend
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        workload, setup_s = setup(WORKLOADS[args.workload], args.seed, args.tiny)
        with RssSampler() if args.trace else contextlib.nullcontext() as rss:
            m = measure(workload, args.seconds, args.trace, rss)
    if not m["runs"]["untraced"] or (args.trace and not m["runs"]["traced"]):
        print("no request succeeded; nothing to report", file=sys.stderr)
        return 1
    metrics = per_layer(m, workload) if args.trace else end_to_end(m, setup_s)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny,
        "requests": {k: len(v) for k, v in m["runs"].items()},
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "backend": backend(),
        "blas_threads": BLAS_THREADS, "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "outputs": workload.record(),
        "warnings": _warning_summary(caught),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
