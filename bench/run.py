"""hullstop benchmark: time to a certified halt, end to end and per layer.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload stop_er1000 --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --smoke          # every workload at tiny sizes

``--trace 0`` measures the end-to-end metrics with no wrappers installed:

- ``setup_s``: median over fresh interpreters of the time from process start
  until the first op could run (``import hullstop`` plus building the inputs
  the benchmark hands in);
- ``run_s``: median time of one op, ops repeated for ``--seconds``;
- ``steps_per_s``: consensus iterations completed in the op over ``run_s``;
- ``peak_mb``: tracemalloc peak over one op, in its own untimed pass after
  a warm-up op.

Times are host-speed adjusted. On a shared 2-vCPU host (Xeon, 2.0 GHz) the
same op ran up to 1.6x slower for stretches of 10 s and more, with CPU time
tracking wall time, so a plain wall-clock median follows the host, not the
program. Each part of an op (see ``workloads.py``) is therefore bracketed by
a fixed calibration loop that shares no code with hullstop, and its wall
time is reported as ``wall * CAL_REF_S / calibration time``: seconds on a
host where the loop takes ``CAL_REF_S``. A set-up probe times the loop in
its own process right after set-up, because a loop timed in the parent
tracked the child's speed worse than no adjustment. The raw wall medians
stay in the report file.

``--trace 1`` wraps hullstop's public functions (see ``tracing.py``), runs
untraced and traced ops alternately for ``--seconds`` and reports the
per-layer metrics (raw wall seconds), with ``trace.overhead_frac`` from the
two adjusted medians.

Every op's outputs are checked (see ``workloads.py``); a failed op counts in
``failed`` and is left out of the timings. The last stdout line is the JSON
result; the full report, with the run context, and the spans of a traced run
go under ``.bench_work/`` in the repository root.
"""

import os

# One BLAS thread, set before numpy is first imported: numpy's OpenBLAS would
# otherwise start a pool sized to the machine for the lstsq and solve calls.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse
import gc
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 3
SETUP_PROBES = 3
CAL_REF_S = 0.03

E2E_UNITS = {"setup_s": "s", "run_s": "s", "steps_per_s": "1/s", "peak_mb": "MB"}


class Calibration:
    """Times a fixed mix of interpreter loops, small numpy calls and small
    least-squares solves that shares no code with hullstop: a gauge of the
    host's current speed. (A memory-streaming part tracked op times worse.)"""

    def __init__(self):
        self.small = np.arange(512.0)
        self.a = np.linspace(0.0, 1.0, 96).reshape(12, 8)
        self.b = np.ones(12)

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(800):
            acc += float((self.small * 1.0001 + i).max())
        n = 0
        for i in range(80000):
            n += i * i
        for _ in range(300):
            np.linalg.lstsq(self.a, self.b, rcond=None)
        return time.perf_counter() - start


class Runner:
    """Runs and checks ops of one workload, counting attempts and failures."""

    def __init__(self, wl, calibration):
        self.wl = wl
        self.calibration = calibration
        self.ref = None
        self.attempted = 0
        self.failed = 0
        self.peak_bytes = None

    def run(self, tracer, label, trace_memory=False):
        """One op: prepare, time each part, check. Returns (wall seconds,
        adjusted seconds), or None if the op failed. A part's adjusted time is
        its wall time * CAL_REF_S / the mean calibration time around it.

        With trace_memory, the parts run under tracemalloc instead (never in a
        timed op: tracing every allocation slows the ring workload about
        threefold), no calibration runs, and their peak goes to peak_bytes.
        """
        self.attempted += 1
        try:
            self.wl.prepare()
            gc.collect()
            results, wall = [], 0.0
            adjusted, cal = (None, None) if trace_memory else (0.0, self.calibration())
            if trace_memory:
                tracemalloc.start()
            try:
                for part in self.wl.parts(tracer):
                    start = time.perf_counter()
                    results.append(part())
                    elapsed = time.perf_counter() - start
                    wall += elapsed
                    if not trace_memory:
                        after = self.calibration()
                        adjusted += elapsed * CAL_REF_S * 2 / (cal + after)
                        cal = after
            finally:
                if trace_memory:
                    self.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            outcome = self.wl.check(results)
            del results
            if self.ref is None:
                self.ref = outcome
            elif (outcome.halts, outcome.digest) != (self.ref.halts, self.ref.digest):
                raise workloads.CheckFailed(
                    f"{label} op differs from the first op: halts {outcome.halts} vs "
                    f"{self.ref.halts}, digest {outcome.digest[:12]} vs {self.ref.digest[:12]}")
        except Exception:
            self.failed += 1
            print(f"{self.wl.name}: {label} op failed\n{traceback.format_exc()}", file=sys.stderr)
            return None
        return wall, adjusted


def setup_probes(name, args, count):
    """(wall, adjusted) set-up seconds, each from a fresh interpreter that
    times the calibration loop right after its set-up."""
    samples = []
    for _ in range(count):
        t0 = time.monotonic()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--setup-probe", repr(t0)]
        if args.smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["setup_s"] * CAL_REF_S / probe["cal"]))
    return samples


def measure_untraced(args, wl, runner, seconds, probes):
    setup = setup_probes(wl.name, args, probes)
    wl.setup()
    null = tracing.NullTracer()
    # the first op sets the outputs later ops must match and finishes lazy
    # imports and caches, which the tracemalloc pass should not count
    if runner.run(null, "reference") is None:
        return None
    peak_start = time.perf_counter()
    if runner.run(null, "tracemalloc", trace_memory=True) is None:
        return None
    peak_pass_s = time.perf_counter() - peak_start
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        res = runner.run(null, "timed")
        if res is not None:
            ops.append(res)
        elif runner.failed > runner.attempted // 2:
            break
    if not ops:
        return None
    run_s = statistics.median([a for _, a in ops])
    metrics = {
        "setup_s": statistics.median([a for _, a in setup]),
        "run_s": run_s,
        "steps_per_s": runner.ref.steps / run_s,
        "peak_mb": runner.peak_bytes / 1e6,
    }
    extra = {"halt_k": runner.ref.halts, "steps": runner.ref.steps,
             "run_wall_s": statistics.median([w for w, _ in ops]),
             "setup_wall_s": statistics.median([w for w, _ in setup]),
             "peak_pass_s": peak_pass_s,
             "run_samples": ops, "setup_samples": setup}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, extra


def measure_traced(args, wl, runner, seconds, spans_path):
    tracing.load_modules()
    tracer = tracing.Tracer()
    null = tracing.NullTracer()
    tracer.op = "setup"
    with tracer.installed():
        wl.setup()
    if runner.run(null, "reference") is None:
        return None
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    op = 0
    while len(traced) < MIN_OPS or time.perf_counter() < deadline:
        res = runner.run(null, "untraced")
        if res is not None:
            plain.append(res)
        tracer.op = op
        with tracer.installed():
            res = runner.run(tracer, "traced")
        if res is not None:
            traced.append(res)
        else:
            tracer.spans = [s for s in tracer.spans if s[4] != op]
        op += 1
        if runner.failed > runner.attempted // 2:
            break
    if not traced or not plain:
        return None
    tracing.write_spans(tracer.spans, spans_path)
    by_op = tracing.stats_by_op(tracer.spans)
    setup_stats = by_op.pop("setup", tracing.OpStats())
    metrics = tracing.layer_metrics(setup_stats, list(by_op.values()), runner.ref,
                                    tracer.present, statistics.median([a for _, a in traced]),
                                    statistics.median([a for _, a in plain]))
    extra = {"halt_k": runner.ref.halts, "traced_ok": len(traced), "traced_total": op,
             "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
             "traced_samples": traced, "untraced_samples": plain}
    return metrics, extra


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_context(wl):
    h = hashlib.sha256()
    for path in sorted((SRC / "hullstop").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cal_ref_s": CAL_REF_S,
        "workload": {"name": wl.name, **wl.context()},
    }


def run_one(args, name, seconds, trace, probes):
    wl = workloads.WORKLOADS[name](args.seed, args.smoke, WORK)
    runner = Runner(wl, Calibration())
    tag = f"{'smoke-' if args.smoke else ''}{name}-seed{args.seed}"
    if trace:
        res = measure_traced(args, wl, runner, seconds, WORK / f"spans-{tag}.jsonl")
    else:
        res = measure_untraced(args, wl, runner, seconds, probes)
    report = {"workload": name, "seed": args.seed, "seconds": seconds, "trace": trace,
              "attempted": runner.attempted, "failed": runner.failed,
              "fail_frac": runner.failed / runner.attempted}
    if res is None:
        report["error"] = "the reference op failed, or no op succeeded"
        return report
    metrics, extra = res
    report.update(metrics=metrics, detail=extra, context=run_context(wl))
    with open(WORK / f"report-{tag}-trace{int(trace)}.json", "w") as fh:
        json.dump(report, fh, indent=2)
    return report


def print_report(report):
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"attempted={report['attempted']} failed={report['failed']} "
          f"fail_frac={report['fail_frac']:.3g}")
    for name, m in report.get("metrics", {}).items():
        value = "absent" if m.get("absent") else f"{m['value']:.6g}"
        print(f"  {name:<40} {value:>14} {m['unit']}")
    detail = report.get("detail", {})
    for key in ("run_wall_s", "setup_wall_s", "halt_k"):
        if key in detail:
            print(f"  {key:<40} {json.dumps(detail[key]):>14}")


def smoke(args):
    """Every workload at tiny sizes, untraced then traced, one JSON result."""
    out = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in workloads.WORKLOADS:
        entry, attempted, failed = {}, 0, 0
        for trace in (0, 1):
            report = run_one(args, name, 0.2, trace, 1)
            print_report(report)
            attempted += report["attempted"]
            failed += report["failed"]
            entry.update(report.get("metrics", {}))
            if "error" in report:
                out["correct"] = False
            if trace:
                detail = report.get("detail", {})
                entry["traced_agrees"] = detail.get("traced_ok", -1) == detail.get("traced_total")
        entry["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
        out["workloads"][name] = entry
        out["attempted"] += attempted
        out["failed"] += failed
    out["fail_frac"] = out["failed"] / out["attempted"]
    out["correct"] = out["correct"] and out["failed"] == 0
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    ap.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "hullstop" / "__init__.py").is_file():
        print(f"benchmark: no hullstop sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        workloads.WORKLOADS[args.workload](args.seed, args.smoke, WORK).setup()
        setup_s = time.monotonic() - args.setup_probe
        calibration = Calibration()
        calibration()  # the first call pays for numpy's lazy initialisation
        print(json.dumps({"setup_s": setup_s, "cal": calibration()}))
        return 0
    import hullstop
    if Path(hullstop.__file__).resolve().parent != SRC / "hullstop":
        print(f"benchmark: imported hullstop from {hullstop.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(args)

    report = run_one(args, args.workload, args.seconds, args.trace, SETUP_PROBES)
    print_report(report)
    if "error" in report:
        print(f"benchmark: {report['error']}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
