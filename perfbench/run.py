"""primekit benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload kernel64 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half with every layer wrapped (see ``tracing.py``), and
prints the per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

On a shared host the CPU speed can change by a third within a second, so
the end-to-end times and rates are scaled to a fixed speed: every 20 ms of
timed work is bracketed by a calibration (fixed interpreter and big-int
work outside primekit), and its times are multiplied by CAL_NOMINAL_NS over
the calibration time (see ``workloads.Recorder``). Set-up time is scaled by
calibrations made right after it. Per-layer times are wall times.

The package is imported from ``src/`` of the checkout this file sits in,
never from an installed copy; without it the run exits with code 2.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

WORKLOAD_NAMES = ("kernel64", "sweep", "rich64", "wide")
SETUP_SAMPLES = 9  # set-ups per untraced run: this process plus 8 children

# name -> unit; failed_ratio is also carried by the "attempted"/"failed" keys
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

STAGE_KINDS = ("even-or-unit", "small-prime-screen", "mod8-euler", "sqrt-base",
               "mr-round", "reciprocity", "divisor-found")

PER_LAYER = {
    "kernel.calls": "count",
    "kernel.self_s": "s",
    "kernel.ge.ns_per_call": "ns",
    "kernel.mrge.ns_per_call": "ns",
    "kernel.mr7.ns_per_call": "ns",
    "kernel.oracle.ns_per_call": "ns",
    "kernel.mrge_over_ge": "ratio",
    "kernel.call_floor_ns": "ns",
    "kernel.powmod_ns": "ns",
    "modarith.powmod.calls": "count",
    "modarith.powmod.self_s": "s",
    "modarith.mulmod.calls": "count",
    "modarith.mulmod.self_s": "s",
    "modarith.isqrt.calls": "count",
    "modarith.powmod_ns": "ns",
    "residues.search.calls": "count",
    "residues.search.self_s": "s",
    "residues.search.inspected": "count",
    "residues.search.found_per_inspected": "ratio",
    "residues.is_small_prime.calls": "count",
    "sprp.round.calls": "count",
    "sprp.round.self_s": "s",
    "sprp.round.pass_ratio": "ratio",
    "sprp.decompose.calls": "count",
    "detprime64.gauss_euler.calls": "count",
    "detprime64.gauss_euler.self_s": "s",
    "detprime64.mr_ge.calls": "count",
    "detprime64.mr_ge.self_s": "s",
    **{f"detprime64.stage.{kind}": "count" for kind in STAGE_KINDS},
    "verdicts.trace_steps": "count",
    "bigrecipes.recipe256.calls": "count",
    "bigrecipes.recipe256.self_s": "s",
    "bigrecipes.candidates_per_prime": "count",
    "verification.sieve.build_s": "s",
    "verification.sieve.bytes": "B",
    "verification.exhaustive.values_per_s": "1/s",
    "verification.random.values_per_s": "1/s",
    "verification.search.values_per_s": "1/s",
    "verification.random.parallel_efficiency": "ratio",
    "verification.checkpoint.lines": "count",
    "verification.checkpoint.bytes": "B",
    "verification.resume_ms": "ms",
    "verification.workers.peak_rss_mb": "MB",
    "trace.overhead_ops_per_s": "1/s",
    "trace.spans": "count",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload's inputs, print the set-up time, exit")
    return ap.parse_args(argv)


# --- run metadata ------------------------------------------------------------


def _git_commit() -> str:
    """HEAD of the checkout; git is not asked to look above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
    except OSError:  # no git on this host
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, kernel) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": kernel.BACKEND,
        "available_backends": list(kernel.available_backends()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "clients": 1,
        "loop": "closed",
        "worker_processes": 2 if args.workload == "sweep" else 0,
        "worker_calls_traced": False,
    }


# --- metrics -----------------------------------------------------------------


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is KiB on Linux


def end_to_end(timed, setup_samples) -> dict:
    return {
        "ops_per_s": timed.ops_per_s,
        "latency_p50_us": timed.latency_p50_us,
        "latency_p99_us": timed.latency_p99_us,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
    }


def per_layer(wl, plain, traced, tracer, probes, worker_rss) -> dict:
    first = tracer.first_pass
    passes = traced.passes

    def per_pass_s(*names):
        return sum(tracer.self_ns(n) for n in names) / 1e9 / passes

    def ns_per_call(name):
        calls = tracer.calls(name)
        return tracer.total_ns(name) / calls if calls else 0.0

    kernel_names = [n for n in tracer.stats if n.startswith("kernel.")]
    ge_ns = ns_per_call("kernel.ge")
    rounds = first["sprp.round.calls"]
    inspected = first["residues.search.inspected"]
    scans = wl.pass_len if wl.name == "wide" else 0
    m = {
        "kernel.calls": sum(first[n + ".calls"] for n in kernel_names),
        "kernel.self_s": per_pass_s(*kernel_names),
        "kernel.ge.ns_per_call": ns_per_call("kernel.ge"),
        "kernel.mrge.ns_per_call": ns_per_call("kernel.mrge"),
        "kernel.mr7.ns_per_call": ns_per_call("kernel.mr7"),
        "kernel.oracle.ns_per_call": ns_per_call("kernel.oracle"),
        "kernel.mrge_over_ge": ns_per_call("kernel.mrge") / ge_ns if ge_ns else 0.0,
        **probes,
        "residues.search.inspected": inspected,
        "residues.search.found_per_inspected": (
            first["residues.search.found"] / inspected if inspected else 0.0),
        "sprp.round.pass_ratio": first["sprp.round.passed"] / rounds if rounds else 0.0,
        "verdicts.trace_steps": first["verdicts.trace_steps"],
        "bigrecipes.candidates_per_prime": (
            first["bigrecipes.recipe256.calls"] / scans if scans else 0.0),
        "verification.workers.peak_rss_mb": worker_rss,
        "trace.overhead_ops_per_s": plain.ops_per_s - traced.ops_per_s,
        "trace.spans": len(tracer.spans),
    }
    for name, unit in PER_LAYER.items():
        if name in m:
            continue
        if name.endswith(".calls") or name.startswith("detprime64.stage."):
            m[name] = first[name]
        elif name.endswith(".self_s"):
            m[name] = per_pass_s(name[: -len(".self_s")])
    m.update(wl.layer_metrics(traced))
    return {name: m.get(name, 0) for name in PER_LAYER}


def probes(tiny) -> dict:
    """Per-call cost of the kernel call floor and of one full-width powmod,
    untraced; median of five timed batches."""
    from primekit import kernel, modarith

    m = 2**64 - 59  # the largest prime below 2^64
    e = (m - 1) >> 1  # a 63-bit exponent

    def cost_ns(fn, args, calls):
        samples = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                fn(*args)
            samples.append((time.perf_counter_ns() - t0) / calls)
        return statistics.median(samples)

    scale = 10 if tiny else 1
    return {
        "kernel.call_floor_ns": cost_ns(kernel.isqrt64, (m,), 20000 // scale),
        "kernel.powmod_ns": cost_ns(kernel.powmod, (3, e, m), 2000 // scale),
        "modarith.powmod_ns": cost_ns(modarith.powmod, (3, e, m), 2000 // scale),
    }


# --- driving one workload ----------------------------------------------------


def _child_setup_s(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args, t_start=T_START) -> dict:
    """Set up, run and check one workload; return the result object."""
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, speed_scale

    os.makedirs(OUT, exist_ok=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    wl = WORKLOADS[args.workload](rng, args.tiny, OUT)
    setup_s = (time.perf_counter() - t_start) * speed_scale()
    try:
        if args.setup_only:
            return {"setup_s": setup_s}
        if not args.trace:
            runs = [wl.run(args.seconds, None)]
        else:
            tracer = Tracer()
            runs = [wl.run(args.seconds / 2, None)]
            with tracer:
                runs.append(wl.run(args.seconds / 2, tracer))
            tracer.write_spans(os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        worker_rss = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        attempted = sum(t.units for t in runs)
        failed = sum(wl.check(t) for t in runs)
        if not args.trace:
            setups = [setup_s] + [_child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
            values, units = end_to_end(runs[0], setups), END_TO_END
        else:
            values = per_layer(wl, runs[0], runs[1], tracer, probes(args.tiny), worker_rss)
            units = PER_LAYER
    finally:
        wl.close()
    beyond = runs[0].p99_samples_beyond
    summary = {
        "failed_ratio": failed / attempted,
        "timed_calls": runs[0].calls,
        "p99_samples_beyond": beyond,
        "worker_peak_rss_mb": worker_rss,
        "calibration_us": statistics.median(runs[0].recorder.calibrations) / 1e3,
    }
    return {
        "correct": failed == 0 and beyond >= 10,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        "summary": summary,
    }


def _print_result(name, result) -> None:
    from perfbench.workloads import CAL_NOMINAL_NS

    for metric, m in result["metrics"].items():
        print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
    s = result["summary"]
    print(f"{name}  failed_ratio = {s['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} units)")
    print(f"{name}  timed calls = {s['timed_calls']}, "
          f"{s['p99_samples_beyond']} latency samples beyond p99, "
          f"worker peak RSS = {s['worker_peak_rss_mb']:.1f} MB")
    print(f"{name}  times are scaled to the speed at which the calibration takes "
          f"{CAL_NOMINAL_NS / 1e3:g} us; in this run it took a median of "
          f"{s['calibration_us']:.1f} us")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "primekit")):
        print(f"perfbench: no primekit sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    from primekit import kernel

    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args)
    if args.setup_only:
        print(json.dumps(result))
        return 0
    print(json.dumps({"meta": metadata(args, kernel)}))
    _print_result(args.workload, result)
    del result["summary"]
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so set-up and memory are its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
