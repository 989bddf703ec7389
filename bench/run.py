"""symortho benchmark: seeded closed-loop workloads with checked outputs.

    python3 bench/run.py --workload gram|expand|members --seed N --seconds S --trace 0|1

One client in one thread calls the library (and `symortho.cli.run`), each
call waiting for the previous one.  The run is a fixed list of operations
drawn from the seed, sized so that its operations take about S seconds at
the reference speed (below) on the machine the block timings were taken
on (2-CPU Xeon VM, Python 3.11, numpy 2.4); the same seed and S always
give the same operations.  Every output is judged by an oracle
(oracles.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs the last block
untraced, then the whole list with every layer's public calls wrapped
(tracing.py), and prints the per-layer metrics and the tracing overhead
(traced against untraced time of that block).  The last line
of stdout is one JSON object; a fuller record (environment, every
operation's verdict, the verdict digest) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Seconds one block's operations take, at the reference speed (below), at
# the reference commit; a run is --seconds / BLOCK_SECONDS blocks, rounded.
BLOCK_SECONDS = {"gram": 6.5, "expand": 5.0, "members": 6.5}
SETUP_STARTS = 9
# The fresh interpreter times itself, then probes its own speed (see
# SpeedProbe) right after, on the core it ran on.
SETUP_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import symortho\n"
    "symortho.gram_matrix(symortho.GUP(1, 1), 2)\n"
    "seconds = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from run import probe\n"
    "print(seconds, sum(probe() for _ in range(10)) / 10)\n")

# On a shared machine (the 2-CPU Xeon VM these constants were tuned on) a
# process's speed drifts by up to 2x within seconds.  Every timing is
# therefore expressed at a reference speed:
# raw seconds times PROBE_S over the mean time of a fixed probe kernel,
# sampled five times before and after each operation and every 20 ms during
# it (SpeedProbe).  PROBE_S is the probe's time on an idle core of the
# reference machine; the probes' own time is taken out of the raw seconds.
PROBE_S = 0.00006
PROBE_EVERY_S = 0.02
_PROBE_X = np.linspace(-1.0, 1.0, 15)
_PROBE_C = (1.0, -0.5, 0.25, 0.125, -0.0625, 0.03, 0.01, -0.02)

UNITS = {"ops_per_s": "1/s", "op_s_p50": "s", "op_s_tail": "s",
         "wrong_frac": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


def load_library():
    """Import symortho from this checkout's src/, and nowhere else."""
    init = os.path.join(SRC, "symortho", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"bench: no symortho sources at {init}")
    sys.path.insert(0, SRC)
    so = importlib.import_module("symortho")
    if os.path.dirname(os.path.abspath(so.__file__)) != os.path.dirname(init):
        sys.exit(f"bench: imported symortho from {so.__file__}, not {SRC}")
    return so, importlib.import_module("symortho.cli"), importlib.import_module("symortho.errors")


def measure_setup():
    """`import symortho` plus one warm-up call in fresh interpreters: the
    median at reference speed, and every start's raw seconds."""
    raw, scaled = [], []
    here = os.path.dirname(os.path.abspath(__file__))
    for _ in range(SETUP_STARTS):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, here],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        seconds, probe_s = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * PROBE_S / probe_s)
    return statistics.median(scaled), raw


def probe():
    """Seconds taken by a fixed kernel shaped like the library's hot path:
    Horner on a 15-point numpy array, then plain float arithmetic."""
    t0 = time.perf_counter()
    acc = np.full_like(_PROBE_X, _PROBE_C[0])
    for c in _PROBE_C[1:]:
        acc = acc * _PROBE_X + c
    total = float(acc @ _PROBE_X)
    for i in range(300):
        total += math.sqrt(i + 1.0) * (i % 7) - total * 1e-9
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed around and during one timed interval."""

    def __init__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def start(self):
        self.samples = [probe() for _ in range(5)]
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self, raw):
        """(raw, scaled): the interval's wall seconds, and its seconds without
        the probes' own time at the reference speed."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.samples += [probe() for _ in range(5)]
        return raw, (raw - self.spent) * PROBE_S / statistics.fmean(self.samples)


def tail(durations):
    """(value, percentile, samples beyond): the highest whole percentile
    with at least 10 samples above its nearest-rank position."""
    n = len(durations)
    ordered = sorted(durations)
    if n <= 10:
        return ordered[-1], 100, 0
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return ordered[rank - 1], p, n - rank


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def execute(ops, errors, tracer=None):
    """Run ops in order, closed loop; returns one record per op."""
    records = []
    speed = SpeedProbe()
    for i, op in enumerate(ops):
        inp = op.prepare()
        crash = None
        speed.start()
        t0 = time.perf_counter()
        if tracer:
            tracer.op_id = i
            root = tracer.begin("op")
        try:
            out = op.call(inp)
        except errors.SymOrthoError as exc:
            out = exc
        except Exception as exc:          # a crash is recorded, not fatal
            out, crash = exc, f"crash: {type(exc).__name__}: {exc}"
        if tracer:
            tracer.finish(root)
            tracer.op_id = -1
        raw, seconds = speed.stop(time.perf_counter() - t0)
        if tracer and hasattr(out, "bytes_out"):
            tracer.counts["cli.bytes_out"] += out.bytes_out
        if crash:
            verdict = crash
        elif isinstance(out, errors.SymOrthoError):
            verdict = f"fail: raised {type(out).__name__}"
        else:
            try:
                reason = op.check(out)
            except Exception as exc:      # output the oracle cannot read
                reason, crash = f"unreadable output: {type(exc).__name__}: {exc}", True
            verdict = "ok" if reason is None else f"fail: {reason}"
        records.append({"id": i, "slot": op.slot, "label": op.label, "seconds": seconds,
                        "raw_seconds": raw, "verdict": verdict, "crash": bool(crash)})
    return records


def timings(durations):
    """ops_per_s, op_s_p50 and op_s_tail of one list of op durations."""
    value, p, beyond = tail(durations)
    return {"ops_per_s": len(durations) / sum(durations),
            "op_s_p50": statistics.median(durations),
            "op_s_tail": value}, {"percentile": p, "beyond": beyond,
                                  "samples": len(durations)}


def reuse_share(ops):
    """Share of operations whose (basis, nmax) was already used in the run."""
    seen, reused, keyed = set(), 0, 0
    for op in ops:
        if op.key is None:
            continue
        keyed += 1
        reused += op.key in seen
        seen.add(op.key)
    return reused / keyed if keyed else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BLOCK_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    so, cli, errors = load_library()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import oracles
    import workloads
    os.makedirs(OUT, exist_ok=True)

    setup = None
    if not args.trace:
        setup = measure_setup()
    count = max(1, int(args.seconds / BLOCK_SECONDS[args.workload] + 0.5))
    builder = workloads.Builder(so, cli, oracles.ExactMembers(so), OUT, args.seed)
    blocks = builder.blocks(args.workload, count)
    ops = [op for block in blocks for op in block]

    metrics, extra = {}, {}
    if args.trace:
        import tracing
        plain = execute(blocks[-1], errors)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            records = execute(ops, errors, tracer)
        finally:
            tracer.uninstall()
        traced_s = sum(r["seconds"] for r in records[-len(blocks[-1]):])
        plain_s = sum(r["seconds"] for r in plain)
        layer = tracer.layer_metrics()
        layer["trace.overhead"] = traced_s / plain_s - 1.0
        layer["trace.spans"] = len(tracer.start)
        sum_self = float(tracer.arrays()["self"].sum())
        extra["trace"] = {"last_block_untraced_ops_per_s": len(plain) / plain_s,
                          "last_block_traced_ops_per_s": len(plain) / traced_s,
                          "self_time_sum_s": sum_self,
                          "op_wall_sum_s": sum(r["raw_seconds"] for r in records)}
        tracer.save(os.path.join(OUT, f"{args.workload}-spans.npz"))
        for name, value in layer.items():
            unit = ("s" if name.endswith(("_s", ".s")) else
                    "ratio" if name.endswith(("_frac", "_share", "overhead")) else
                    "B" if name.endswith("bytes_out") else "count")
            metrics[name] = {"value": value, "unit": unit}
    else:
        records = execute(ops, errors)
        e2e, extra["tail"] = timings([r["seconds"] for r in records])
        e2e["wrong_frac"] = sum(r["verdict"] != "ok" for r in records) / len(records)
        extra["raw_wall"] = timings([r["raw_seconds"] for r in records])[0]
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e["setup_s"] = setup[0]
        extra["setup_samples_s"] = setup[1]
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}

    attempted = len(records)
    failed = sum(r["verdict"] != "ok" for r in records)
    verdicts = [[r["id"], r["label"], r["verdict"]] for r in records]
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "blocks": count, "env": environment(),
              "op_mix": dict(sorted(Counter(r["slot"] for r in records).items())),
              "reuse_share": reuse_share(ops), "ops_attempted": attempted,
              "ops_failed": failed, "verdict_digest": digest, "metrics": metrics,
              **extra, "ops": records}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    env = record["env"]
    print(f"symortho bench: workload {args.workload}, seed {args.seed}, {count} blocks, "
          f"{attempted} ops, trace {args.trace}")
    print(f"  python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']}")
    print(f"  ops_attempted {attempted}, ops_failed {failed}, "
          f"reuse_share {record['reuse_share']}, verdict digest {digest[:16]}")
    if "tail" in extra:
        t = extra["tail"]
        print(f"  op_s_tail is p{t['percentile']} of {t['samples']} ops "
              f"({t['beyond']} beyond it)")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    crashed = any(r["crash"] for r in records)
    print(json.dumps({"correct": not crashed, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
