"""netselect benchmark.

    python3 perfbench/run.py --workload mc_stability|large_n|cli_table2 \\
        --seed N --seconds S --trace 0|1

Prints the environment, one line per metric (name, value, unit), and, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 measures the end-to-end metrics for S seconds. --trace 1
runs a fixed amount of the workload's work untraced, then the same work
traced, and reports the per-layer metrics. perfbench/README.md describes the
workloads and metrics.
"""

import os

# BLAS threads would push the benchmark's processes past its two-thread budget.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LAYERS, Tracer  # noqa: E402
from workloads import SRC, WORK, HostSpeed, Run, run_process  # noqa: E402

# Workload -> the kind of operation it repeats (see workloads.py).
WORKLOADS = {"mc_stability": "mc", "large_n": "large", "cli_table2": "cli"}

SIZES = {
    "full": {
        # Trials per monte_carlo_reversal call: the documented use (README's
        # `--montecarlo 1000`, the seed-7 golden run, ROADMAP item 4's gate).
        "mc_chunk": 1000,
        "large_instances": 500,  # per profile, so n = 1500
        "repeats": 11,  # set-up and import probes per run
        "probe": {"mc": 4, "large": 3, "cli": 36},  # fixed work of the other workloads
        "min_ops": {"mc": 5, "large": 3, "cli": 40},
        "traced": {"mc": 1, "large": 1, "cli": 12},
    },
    "tiny": {
        "mc_chunk": 5,
        "large_instances": 20,
        "repeats": 2,
        "probe": {"mc": 2, "large": 1, "cli": 6},
        "min_ops": {"mc": 2, "large": 1, "cli": 6},
        "traced": {"mc": 2, "large": 1, "cli": 6},
    },
}

METHOD_NAMES = ("msaw", "saw", "wpm", "topsis", "ahp")

END_TO_END = {
    "setup_s": "s",
    "mc_trials_per_s": "trials/s",
    "large_gen_s": "s",
    "large_compare_s": "s",
    "large_drop_s": "s",
    "cli_p50_ms": "ms",
    "cli_p90_ms": "ms",
    "import_s": "s",
    "ok_ratio": "ok/attempted",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.validate_matrix.calls": "count",
    "core.validate_matrix.self_ms": "ms",
    "core.validate_per_rank": "calls/rank",
    "core.normalize.self_ms": "ms",
    "core.from_scores.calls": "count",
    "core.from_scores.self_ms": "ms",
    "methods.rank.calls": "count",
    "methods.rank_per_compare": "calls/compare",
    **{f"methods.rank_{m}.self_ms": "ms" for m in METHOD_NAMES},
    "analysis.kendall_tau.calls": "count",
    "analysis.kendall_tau.self_ms": "ms",
    "analysis.kendall_tau.pairs": "count",
    "analysis.kendall_tau.useful_ratio": "ratio",
    "analysis._flipped_pairs.calls": "count",
    "analysis._flipped_pairs.self_ms": "ms",
    "analysis.reversal_experiment.self_ms": "ms",
    "analysis.monte_carlo_reversal.self_ms": "ms",
    "rng.draws": "count",
    "rng.self_ms": "ms",
    "scenario.generate_matrix.self_ms": "ms",
    "weighting.principal_eigenvector.self_ms": "ms",
    "weighting.principal_eigenvector.iterations": "count",
    "io.read_matrix_csv.self_ms": "ms",
    "io.read_matrix_csv.bytes": "bytes",
    "io.write_matrix_csv.self_ms": "ms",
    "io.write_matrix_csv.bytes": "bytes",
    "cli.main.self_ms": "ms",
    "import.numpy_ms": "ms",
    "import.netselect_ms": "ms",
    "import.interpreter_ms": "ms",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="netselect benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", choices=("mc", "large"), help=argparse.SUPPRESS)
    parser.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    return args


IMPORT_COMMAND = [sys.executable, "-c", "import netselect.cli"]
RUN_PY = str(Path(__file__).resolve())


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = (line.split(":", 1)[1] for line in handle if line.startswith("model name"))
            cpu = next(models, cpu).strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def child(command: list[str], env: dict):
    """Run a helper process that must succeed."""
    done = run_process(command, env)
    if done.code != 0:
        raise RuntimeError(f"{command} exited with {done.code}: {done.stderr.strip()[-500:]}")
    return done


def run_command(args, *extra: str) -> list[str]:
    """This benchmark, run again in a child process for the same workload and seed."""
    command = [sys.executable, RUN_PY, *extra, "--workload", args.workload, "--seed", str(args.seed)]
    return command + ["--tiny"] * args.tiny


def setup_probe(run, args):
    """Process start until the first operation is ready, in a fresh interpreter."""
    with HostSpeed() as speed:
        # CLOCK_MONOTONIC is one clock for every process, so the child's reading compares.
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = child(run_command(args, "--setup-only"), run.env)
    run.record("setup", (int(done.stdout.split()[-1]) - start) / 1e9, speed)


def import_probe(run):
    with HostSpeed() as speed:
        done = child(IMPORT_COMMAND, run.env)
    run.record("import", done.seconds, speed)


def probe_in_child(run, kind: str, args):
    """One operation of another in-process workload, in a child process, so that its
    memory stays out of this run's peak_rss_mb. Its outputs are checked here."""
    index = run.counts[kind]
    run.counts[kind] += 1
    done = run_process(run_command(args, "--probe", kind, "--index", str(index)), run.env)
    if done.code != 0:
        run.attempted += 1
        run.fail(f"{kind}-child:{index}", f"exit code {done.code}: {done.stderr.strip()[-200:]}")
        return
    run.merge(json.loads(done.stdout.splitlines()[-1]))


def import_times_ms(env: dict) -> tuple[float, float]:
    """(numpy, netselect without numpy) cumulative import times from -X importtime."""
    log = child([sys.executable, "-X", "importtime", *IMPORT_COMMAND[1:]], env).stderr
    cumulative = {}
    for line in log.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = (part.strip() for part in line.split("|"))
            if cum.isdigit():
                cumulative[name] = max(cumulative.get(name, 0), int(cum))
    numpy_us = cumulative.get("numpy", 0)
    package_us = max(v for k, v in cumulative.items() if k.split(".")[0] == "netselect")
    return numpy_us / 1e3, (package_us - numpy_us) / 1e3


def home_peak_rss_mb(run, primary: str) -> float:
    """Peak RSS of the home operation: this process for an in-process workload (the
    other workloads' in-process operations ran in children), else the largest CLI child."""
    if primary == "cli":
        kib = max(run.cli_rss_kib)
    else:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def timing_metrics(times: dict, mc_chunk: int) -> dict:
    """The timed end-to-end metrics of one run's samples, in seconds per step."""
    cli = times["cli"]
    mc_seconds = sum(times["mc"])
    return {
        "setup_s": median(times["setup"]),
        "mc_trials_per_s": len(times["mc"]) * mc_chunk / mc_seconds if mc_seconds else 0.0,
        "large_gen_s": median(times["gen"]),
        "large_compare_s": median(times["compare"]),
        "large_drop_s": median(times["drop"]),
        "cli_p50_ms": median(cli) * 1e3,
        "cli_p90_ms": statistics.quantiles(cli, n=10)[8] * 1e3 if len(cli) > 1 else 0.0,
        "import_s": median(times["import"]),
    }


def measure(args, env, sizes) -> tuple[dict, object]:
    """The end-to-end metrics of one run of --seconds seconds."""
    start = time.perf_counter()
    run = Run(args.seed, env, sizes)
    primary = WORKLOADS[args.workload]
    if primary != "cli":
        run.warm_up(primary)
    operations = {
        "mc": run.mc_chunk if primary == "mc" else lambda: probe_in_child(run, "mc", args),
        "large": (
            run.large_session if primary == "large" else lambda: probe_in_child(run, "large", args)
        ),
        "cli": run.cli_invocation,
        "setup": lambda: setup_probe(run, args),
        "import": lambda: import_probe(run),
    }
    # The probes, including the other workloads' fixed work, are spread evenly
    # over the run: the machine's speed drifts over seconds, and a probe done
    # in one block would sample a single moment of that drift.
    probes = {k: n for k, n in sizes["probe"].items() if k != primary}
    probes["setup"] = probes["import"] = sizes["repeats"]
    due = sorted(
        (start + (i + 0.5) * args.seconds / count, kind)
        for kind, count in probes.items()
        for i in range(count)
    )
    done = 0
    while due or done < sizes["min_ops"][primary] or time.perf_counter() < start + args.seconds:
        now = time.perf_counter()
        if due and (due[0][0] <= now or now >= start + args.seconds):
            operations[due.pop(0)[1]]()
        else:
            operations[primary]()
            done += 1
    rss = home_peak_rss_mb(run, primary)
    if primary == "mc":
        run.check_golden()
    run.check_pending()
    metrics = timing_metrics(run.times, sizes["mc_chunk"])
    metrics["ok_ratio"] = (run.attempted - run.failed) / max(run.attempted, 1)
    metrics["peak_rss_mb"] = rss
    for name, value in timing_metrics(run.raw, sizes["mc_chunk"]).items():
        print(f"as measured: {name} = {value:.6g} {END_TO_END[name]}")
    return metrics, run


def measure_traced(args, env, sizes) -> tuple[dict, object]:
    """The per-layer metrics: the same fixed work run untraced, then traced."""
    numpy_ms, package_ms, interpreter_ms = [], [], []
    for _ in range(sizes["repeats"]):
        np_ms, pkg_ms = import_times_ms(env)
        numpy_ms.append(np_ms)
        package_ms.append(pkg_ms)
        interpreter_ms.append(child([sys.executable, "-c", "pass"], env).seconds * 1e3)
    run = Run(args.seed, env, sizes)
    primary = WORKLOADS[args.workload]
    operation = {"mc": run.mc_chunk, "large": run.large_session, "cli": run.cli_invocation}[primary]
    count = sizes["traced"][primary]

    untraced = sum(operation() for _ in range(count))
    run.check_pending()
    run.reset_inputs()
    tracer = Tracer()
    tracer.install()
    run.tracer = tracer
    try:
        traced = sum(operation() for _ in range(count))
    finally:
        tracer.uninstall()
        run.tracer = None
    for state in run.child_states:
        tracer.merge(state)
    run.check_pending()
    if primary == "mc":
        run.check_golden()
    tracer.dump(WORK / f"spans_{args.workload}.jsonl")

    metrics = layer_metrics(tracer, traced)
    metrics.update(
        {
            "import.numpy_ms": median(numpy_ms),
            "import.netselect_ms": median(package_ms),
            "import.interpreter_ms": median(interpreter_ms),
            "trace.overhead_ratio": traced / untraced if untraced else 0.0,
        }
    )
    print_layer_summary(tracer, traced)
    return metrics, run


def layer_metrics(tracer, traced_s: float) -> dict:
    calls, counters = tracer.calls, tracer.counters
    tau_calls = calls["analysis.kendall_tau"]

    def self_ms(*names):
        return sum(tracer.self_ns[n] for n in names) / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "core.validate_matrix.calls": calls["core.validate_matrix"],
        "core.validate_matrix.self_ms": self_ms("core.validate_matrix"),
        "core.validate_per_rank": ratio(calls["core.validate_matrix"], calls["methods.rank"]),
        "core.normalize.self_ms": self_ms("core.normalize"),
        "core.from_scores.calls": calls["core.from_scores"],
        "core.from_scores.self_ms": self_ms("core.from_scores"),
        "methods.rank.calls": calls["methods.rank"],
        "methods.rank_per_compare": ratio(
            counters["methods.rank.calls@compare"], counters["ops@compare"]
        ),
        **{f"methods.rank_{m}.self_ms": self_ms(f"methods.rank_{m}") for m in METHOD_NAMES},
        "analysis.kendall_tau.calls": tau_calls,
        "analysis.kendall_tau.self_ms": self_ms("analysis.kendall_tau"),
        "analysis.kendall_tau.pairs": counters["analysis.kendall_tau.pairs"],
        "analysis.kendall_tau.useful_ratio": ratio(
            counters["analysis.kendall_tau.useful"], tau_calls
        ),
        "analysis._flipped_pairs.calls": calls["analysis._flipped_pairs"],
        "analysis._flipped_pairs.self_ms": self_ms("analysis._flipped_pairs"),
        "analysis.reversal_experiment.self_ms": self_ms("analysis.reversal_experiment"),
        "analysis.monte_carlo_reversal.self_ms": self_ms("analysis.monte_carlo_reversal"),
        "rng.draws": calls["rng.next_uint64"],
        "rng.self_ms": self_ms(*(n for n in tracer.self_ns if n.startswith("rng."))),
        "scenario.generate_matrix.self_ms": self_ms("scenario.generate_matrix"),
        "weighting.principal_eigenvector.self_ms": self_ms("weighting.principal_eigenvector"),
        "weighting.principal_eigenvector.iterations": counters[
            "weighting.principal_eigenvector.iterations"
        ],
        "io.read_matrix_csv.self_ms": self_ms("io.read_matrix_csv"),
        "io.read_matrix_csv.bytes": counters["io.read_matrix_csv.bytes"],
        "io.write_matrix_csv.self_ms": self_ms("io.write_matrix_csv"),
        "io.write_matrix_csv.bytes": counters["io.write_matrix_csv.bytes"],
        "cli.main.self_ms": self_ms("cli.main"),
    }
    for layer in LAYERS:
        layer_ms = self_ms(*(n for n in tracer.self_ns if n.split(".")[0] == layer))
        metrics[f"{layer}.share"] = ratio(layer_ms, traced_s * 1e3)
    return metrics


def print_layer_summary(tracer, traced_s: float):
    """Every recorded function: calls, self time and share of the traced end-to-end time."""
    print(f"layer summary: traced end-to-end {traced_s * 1e3:.1f} ms")
    print(f"  {'span':40} {'calls':>9} {'self_ms':>11} {'share':>7}")
    for name in sorted(tracer.self_ns, key=tracer.self_ns.get, reverse=True):
        ms = tracer.self_ns[name] / 1e6
        print(f"  {name:40} {tracer.calls[name]:>9} {ms:>11.2f} {ms / (traced_s * 1e3):>7.1%}")
    pairs = tracer.counters["analysis.kendall_tau.pairs"]
    print(f"  analysis.kendall_tau.pairs = {pairs} (computed: sum of n(n-1)/2 over calls)")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "netselect" / "__init__.py").is_file():
        print(f"error: {SRC / 'netselect'} not found; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    sizes = SIZES["tiny" if args.tiny else "full"]
    if args.setup_only:
        Run(args.seed, env, sizes)
        print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
        return 0
    if args.probe:
        run = Run(args.seed, env, sizes)
        run.warm_up(args.probe)
        run.counts[args.probe] = args.index
        {"mc": run.mc_chunk, "large": run.large_session}[args.probe]()
        print(json.dumps(run.export()))
        return 0

    started = time.perf_counter()
    env_record = environment()
    print("env " + json.dumps(env_record))
    if args.trace:
        metrics, run = measure_traced(args, env, sizes)
        units = PER_LAYER
    else:
        metrics, run = measure(args, env, sizes)
        units = END_TO_END
    for op, messages in list(run.failures.items())[:20]:
        print(f"FAILED {op}: {'; '.join(messages)}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    fail_ratio = run.failed / max(run.attempted, 1)
    print(f"fail_ratio = {fail_ratio:.6g} ({run.failed} failed / {run.attempted} attempted)")
    print(f"wall time {time.perf_counter() - started:.1f} s")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    details = {"env": env_record, "args": vars(args), "samples": run.times, "raw": run.raw}
    record = WORK / f"result_{args.workload}_trace{args.trace}.json"
    text = json.dumps({**result, **details, "failures": run.failures}, indent=1)
    record.write_text(text + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
