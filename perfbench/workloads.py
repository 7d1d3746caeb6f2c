"""The benchmark's operations and the checks of their outputs.

Three kinds of operation, one per workload:
  mc     one chunk of ``monte_carlo_reversal`` trials, in process;
  large  one user session through ``cli.main`` in process: gen, compare, reversal --drop;
  cli    one ``python -m netselect`` invocation in a subprocess.
Every input is drawn from the run's seed and the operation's index, so any
process can repeat any operation. Outputs are kept and checked after the timed
part of the run, against :mod:`oracle` and recorded references.

Each step's wall time is kept twice: as measured, and scaled to a reference
host speed by :class:`HostSpeed`. The host this benchmark was written on slows
down by up to half for seconds at a time; a fixed loop slows with it, so the
scaled times stay steady.
"""

import contextlib
import csv
import gc
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
PAIRWISE = "perfbench/pairwise.csv"
CLI_REFERENCE = BENCH_DIR / "cli_reference.json"
EXAMPLE_SCENARIO = SRC / "netselect" / "data" / "example_scenario.json"
GOLDEN_SEED, GOLDEN_TRIALS = 7, 1000
GOLDEN_COUNTS = {"msaw": 372, "saw": 135, "wpm": 0, "topsis": 186, "ahp": 236}
CLI_KINDS = ("rank", "compare", "drop", "duplicate", "gen", "pairwise")
PRESET_NAMES = ("voip", "video", "best_effort")
OPERATION_KINDS = ("mc", "large", "cli")
# A `large` session runs `gen` this many times: it takes 35 ms next to compare's
# 3 s, and a median of a few such short steps is noisy.
GENS_PER_SESSION = 5
STEPS = ("mc", "gen", "compare", "drop", "cli", "setup", "import")
LOOP_STEPS = 4000
# About the median time of time_loop() on a 2-vCPU Xeon VM (Python 3.11). It
# only sets the unit: a scaled time is in seconds at that loop time.
LOOP_REFERENCE_S = 0.35e-3
SAMPLE_EVERY_S = 0.02  # of this process's CPU time
# Printed scores have 6 decimals and tau 4: two correct printings differ by at
# most one unit in the last digit.
SCORE_TOLERANCE, TAU_TOLERANCE = 1.5e-6, 1.5e-4


def time_loop() -> float:
    """Seconds a fixed pure-Python loop takes now; it touches nothing of netselect."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_STEPS):
        total += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Times one step, and how fast the host ran meanwhile.

    The loop runs 5 times just before and 5 times just after the step, and
    every SAMPLE_EVERY_S of this process's CPU time during it, from a SIGPROF
    handler. ``seconds`` is the step's wall time less the handler's; ``scale``
    is LOOP_REFERENCE_S ÷ the median loop time. A step that waits on a child
    process uses little CPU time here, so its scale rests on the loops before
    and after it. The garbage of earlier steps is collected first, so that a
    step does not pay for another's.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.loops: list[float] = []

    def _sample(self, _signum, _frame):
        self.loops.append(time_loop())

    def __enter__(self):
        gc.collect()
        self.loops = [time_loop() for _ in range(5)]
        if self.sample:
            signal.signal(signal.SIGPROF, self._sample)
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc):
        if self.sample:
            signal.setitimer(signal.ITIMER_PROF, 0)
        self.seconds = time.perf_counter() - self.start - sum(self.loops[5:])
        self.loops += [time_loop() for _ in range(5)]
        self.scale = LOOP_REFERENCE_S / statistics.median(self.loops)
        return False


@dataclass
class Finished:
    """A child process that ran to its end."""

    seconds: float
    code: int
    stdout: str
    stderr: str
    peak_rss_kib: int


class _Timeout(Exception):
    pass


def _raise_timeout(_signum, _frame):
    raise _Timeout


def run_process(command: list[str], env: dict, timeout: float = 120.0) -> Finished:
    """Run a command from the checkout root to its end, with its own peak RSS (wait4)."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text = (out.read().decode("utf-8"), err.read().decode("utf-8"))
    return Finished(seconds, proc.returncode, *text, usage.ru_maxrss)


def cli_args(kind: str, preset: str, gen_seed: int = 0) -> list[str]:
    """Arguments of one cli_table2 invocation on the bundled 6x5 matrix."""
    table2 = ["--matrix", "table2", "--weights", f"preset:{preset}"]
    return {
        "rank": ["rank", *table2, "--method", "all"],
        "compare": ["compare", *table2],
        "drop": ["reversal", *table2, "--drop", "N(4)"],
        "duplicate": ["reversal", *table2, "--duplicate", "N(2)"],
        "gen": ["gen", "--seed", str(gen_seed)],
        "pairwise": ["rank", "--matrix", "table2", "--weights", f"pairwise:{PAIRWISE}"]
        + ["--format", "json"],
    }[kind]


def reference_key(kind: str, preset: str) -> str:
    return kind if kind in ("gen", "pairwise") else f"{kind}:{preset}"


class Run:
    """State of one benchmark run: the loaded program, seeded inputs, timings and failures."""

    def __init__(self, seed: int, env: dict, sizes: dict):
        # Imported here: run.py puts src/ on sys.path only after checking that it exists.
        import netselect
        import netselect.cli

        self.ns, self.cli = netselect, netselect.cli
        self.env, self.sizes = env, sizes
        self.spec = netselect.example_scenario()
        self.weights = netselect.preset_weights("voip")
        self.scenario = json.loads(EXAMPLE_SCENARIO.read_text("utf-8"))
        self.large_scenario = dict(self.scenario, instances_per_profile=sizes["large_instances"])
        WORK.mkdir(exist_ok=True)
        self.large_spec = WORK / "large_spec.json"
        self.large_spec.write_text(json.dumps(self.large_scenario), encoding="utf-8")
        self.cli_reference = json.loads(CLI_REFERENCE.read_text("utf-8"))
        self.seed = seed
        self.times = {step: [] for step in STEPS}  # scaled to the reference host speed
        self.raw = {step: [] for step in STEPS}  # as measured
        self.cli_rss_kib: list[int] = []
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}  # operation -> what went wrong
        self.tracer = None  # set while a traced pass runs
        self.child_states: list[dict] = []
        self.passes = 0
        self.reset_inputs()

    def reset_inputs(self):
        """Restart the operation counts, so a further pass repeats the first one's inputs."""
        self.counts = dict.fromkeys(OPERATION_KINDS, 0)
        self.pending: list[tuple] = []
        self.passes += 1

    def _inputs(self, kind: str) -> tuple[int, "oracle.SplitMix64"]:
        """The next operation's index and its input stream, a function of the seed and index."""
        index = self.counts[kind]
        self.counts[kind] += 1
        base = oracle.derive_seed(self.seed, OPERATION_KINDS.index(kind))
        return index, oracle.SplitMix64(oracle.derive_seed(base, index))

    def _speed(self) -> HostSpeed:
        # A traced pass takes no samples: they would count in the spans' self time.
        return HostSpeed(sample=self.tracer is None)

    def record(self, step: str, seconds: float, speed: HostSpeed):
        """Keep a step's wall time, as measured and at the reference host speed."""
        self.raw[step].append(seconds)
        self.times[step].append(seconds * speed.scale)

    def export(self) -> dict:
        """What a child process hands back to the run that started it."""
        return {
            "times": self.times,
            "raw": self.raw,
            "attempted": self.attempted,
            "failures": self.failures,
            "pending": [[str(x) if isinstance(x, Path) else x for x in p] for p in self.pending],
        }

    def merge(self, state: dict):
        """Add what a child process did, from its :meth:`export`."""
        for step in STEPS:
            self.times[step] += state["times"][step]
            self.raw[step] += state["raw"][step]
        self.attempted += state["attempted"]
        self.failures.update(state["failures"])
        self.pending += [tuple(item) for item in state["pending"]]

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, op: str, message: str):
        self.failures.setdefault(op, []).append(message)

    def _start(self, kind: str, op: str) -> str:
        """Count one attempted operation and name it in the trace; returns its key."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = op
            self.tracer.counters[f"ops@{kind}"] += 1
        return f"{self.passes}/{op}"

    def warm_up(self, kind: str):
        """Run a small operation of a kind, untimed and unchecked, so that a fresh
        process's lazy set-up is done before it times one. For a session, `gen`
        runs at full size (it is cheap, and its first run in a process grows the
        heap), `compare` and `reversal` on the 6-row example."""
        if kind == "mc":
            self.ns.monte_carlo_reversal(self.spec, self.weights, self.ns.METHODS, trials=5, seed=0)
            return
        full, small = WORK / "warm_up_full.csv", WORK / "warm_up.csv"
        ranked = ["--matrix", str(small), "--weights", "preset:voip"]
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main(["gen", "--spec", str(self.large_spec), "--out", str(full)])
            self.cli.main(["gen", "--out", str(small)])
            self.cli.main(["compare", *ranked])
            self.cli.main(["reversal", *ranked, "--drop", "WiFi-0", "--method", "all"])
        for path in (full, small):
            path.unlink()
            Path(f"{path}.directions.json").unlink()

    # ----- mc -----------------------------------------------------------------
    def mc_chunk(self) -> float:
        trials = self.sizes["mc_chunk"]
        index, stream = self._inputs("mc")
        base = stream.next()
        key = self._start("mc", f"mc:{index}")
        try:
            with self._speed() as speed:
                report = self.ns.monte_carlo_reversal(
                    self.spec, self.weights, self.ns.METHODS, trials=trials, seed=base
                )
        except Exception as exc:  # a raising operation is a failed operation
            self.fail(key, f"mc seed={base}: {exc!r}")
            return 0.0
        self.record("mc", speed.seconds, speed)
        self.pending.append(("mc", key, base, trials, dict(report.reversal_counts)))
        return speed.seconds

    # ----- large --------------------------------------------------------------
    def _main(self, step: str, op: str, argv: list[str]) -> tuple[float, str, str]:
        key = self._start(argv[0], op)
        out = io.StringIO()
        try:
            with self._speed() as speed, contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising operation is a failed operation
            self.fail(key, f"{step} {argv}: {exc!r}")
            return 0.0, "", key
        if code != 0:
            self.fail(key, f"{step} {argv}: exit code {code}")
        self.record(step, speed.seconds, speed)
        return speed.seconds, out.getvalue(), key

    def large_session(self) -> float:
        """`gen` GENS_PER_SESSION matrices, then `compare` and `reversal --drop` on the first."""
        index, stream = self._inputs("large")
        gen_seeds = [stream.next()]
        drop_row = stream.randrange(3 * self.sizes["large_instances"])
        gen_seeds += [stream.next() for _ in range(GENS_PER_SESSION - 1)]
        paths = [str(WORK / f"large_{index}_{j}.csv") for j in range(GENS_PER_SESSION)]
        elapsed, gen_keys = 0.0, []
        for j, (seed, path) in enumerate(zip(gen_seeds, paths)):
            gen = ["gen", "--spec", str(self.large_spec), "--seed", str(seed), "--out", path]
            seconds, _, key = self._main("gen", f"gen:{index}.{j}", gen)
            elapsed += seconds
            gen_keys.append(key)
        ranked = ["--matrix", paths[0], "--weights", "preset:voip"]
        label = self._large_labels()[drop_row]
        t_cmp, compared, cmp_key = self._main("compare", f"compare:{index}", ["compare", *ranked])
        t_drop, dropped, drop_key = self._main(
            "drop", f"reversal:{index}", ["reversal", *ranked, "--drop", label, "--method", "all"]
        )
        keys = (gen_keys, cmp_key, drop_key)
        self.pending.append(("large", keys, gen_seeds, paths, label, compared, dropped))
        return elapsed + t_cmp + t_drop

    def _large_labels(self) -> list[str]:
        n = self.sizes["large_instances"]
        return [f"{p['name']}-{k}" for p in self.scenario["profiles"] for k in range(n)]

    # ----- cli ----------------------------------------------------------------
    def cli_invocation(self) -> float:
        index, stream = self._inputs("cli")
        kind = CLI_KINDS[(self.seed + index) % len(CLI_KINDS)]
        preset = PRESET_NAMES[stream.randrange(len(PRESET_NAMES))]
        gen_seed = stream.next() if kind == "gen" else 0
        args = cli_args(kind, preset, gen_seed)
        if self.tracer is None:
            command = [sys.executable, "-m", "netselect", *args]
        else:
            state_path = WORK / f"child_{index}.json"
            command = [sys.executable, str(BENCH_DIR / "spans.py"), str(state_path), "--", *args]
        key = self._start(args[0], f"cli:{index}")
        with self._speed() as speed:
            done = run_process(command, self.env)
        self.record("cli", done.seconds, speed)
        self.cli_rss_kib.append(done.peak_rss_kib)
        if self.tracer is not None and state_path.exists():
            self.child_states.append(json.loads(state_path.read_text("utf-8")))
            state_path.unlink()
        outcome = (done.code, done.stdout, done.stderr)
        self.pending.append(("cli", key, kind, preset, gen_seed, *outcome))
        return done.seconds

    # ----- checks -------------------------------------------------------------
    def check_pending(self):
        """Check every kept output, then drop it."""
        for kind, key, *item in self.pending:
            try:
                getattr(self, f"_check_{kind}")(key, *item)
            except Exception as exc:  # a malformed output fails its operation
                self.fail(key[1] if kind == "large" else key, f"{kind} check raised {exc!r}")
        self.pending = []

    def check_golden(self):
        """The recorded Monte Carlo counts for seed 7, 1000 trials."""
        key = self._start("mc", "golden")
        try:
            report = self.ns.monte_carlo_reversal(
                self.spec, self.weights, self.ns.METHODS, trials=GOLDEN_TRIALS, seed=GOLDEN_SEED
            )
        except Exception as exc:  # a raising operation is a failed operation
            self.fail(key, f"golden run: {exc!r}")
            return
        if dict(report.reversal_counts) != GOLDEN_COUNTS:
            self.fail(key, f"golden counts {report.reversal_counts} != {GOLDEN_COUNTS}")

    def _check_mc(self, key, base, trials, counts):
        expected = oracle.mc_counts(self.scenario, oracle.preset("voip"), base, trials)
        if counts != expected:
            self.fail(key, f"mc seed={base}: counts {counts} != reference {expected}")

    def _check_matrix_csv(self, key, text: str, scenario: dict, seed: int, what: str):
        labels, values = oracle.generate(scenario, seed)
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
        if rows[0] != ["alternative", *oracle.CRITERIA]:
            self.fail(key, f"{what}: header {rows[0]}")
        elif [r[0] for r in rows[1:]] != labels or [
            [float(c) for c in r[1:]] for r in rows[1:]
        ] != values.tolist():
            self.fail(key, f"{what}: matrix differs from the reference generator")

    def _check_large(self, keys, gen_seeds, paths, label, compared, dropped):
        gen_keys, cmp_key, drop_key = keys
        for key, seed, path in zip(gen_keys, gen_seeds, map(Path, paths)):
            text = path.read_text("utf-8")
            self._check_matrix_csv(key, text, self.large_scenario, seed, f"large gen --seed {seed}")
            path.unlink()
            Path(f"{path}.directions.json").unlink()
        what = f"large gen --seed {gen_seeds[0]}"
        labels, values = oracle.generate(self.large_scenario, gen_seeds[0])
        w = oracle.preset("voip")
        orders, scores = oracle.rank(labels, values, w)
        self._check_compare(cmp_key, compared, labels, orders, scores, what)
        row = labels.index(label)
        survivors = labels[:row] + labels[row + 1 :]
        reduced, _ = oracle.rank(survivors, np.delete(values, row, axis=0), w)
        self._check_drop(drop_key, dropped, label, orders, reduced, what)

    def _check_compare(self, key, text, labels, orders, scores, what):
        from scipy.stats import kendalltau

        got_orders, got_scores, _, tau = parse_compare(text)
        if list(got_orders) != list(oracle.METHODS):
            self.fail(key, f"{what} compare: methods {list(got_orders)}")
            return
        index = {label: i for i, label in enumerate(labels)}
        for method, order in got_orders.items():
            printed = got_scores[method]
            if order != orders[method]:
                self.fail(key, f"{what} compare: {method} order differs from the reference")
            elif any(a < b - 2e-6 for a, b in zip(printed, printed[1:])):
                self.fail(key, f"{what} compare: {method} order is not sorted by score")
            elif any(abs(p - scores[method][index[l]]) > 6e-7 for p, l in zip(printed, order)):
                self.fail(key, f"{what} compare: {method} scores differ from the reference")
        positions = {m: _positions(o, labels) for m, o in got_orders.items()}
        for a in oracle.METHODS:
            for b in oracle.METHODS:
                expected = kendalltau(positions[a], positions[b]).statistic
                printed = tau.get((a, b))
                if printed is None or abs(printed - expected) > 6e-5:
                    message = f"tau({a},{b}) {printed} != scipy {expected:.6f}"
                    self.fail(key, f"{what} compare: {message}")

    def _check_drop(self, key, text, label, orders, reduced, what):
        reports = parse_reversal(text)
        if [r[0] for r in reports] != list(oracle.METHODS):
            self.fail(key, f"{what} drop {label}: methods {[r[0] for r in reports]}")
            return
        for method, flagged, baseline, after, _ in reports:
            expected = [l for l in baseline if l != label]
            if baseline != orders[method] or after != reduced[method]:
                self.fail(key, f"{what} drop {label}: {method} orders differ from the reference")
            elif flagged != (after != expected):
                self.fail(key, f"{what} drop {label}: {method} reversed flag is {flagged}")

    def _check_cli(self, key, kind, preset, gen_seed, code, stdout, stderr):
        what = f"cli {' '.join(cli_args(kind, preset, gen_seed))}"
        if code != 0:
            self.fail(key, f"{what}: exit code {code}: {stderr.strip()[-200:]}")
            return
        if kind == "gen":
            self._check_matrix_csv(key, stdout, self.scenario, gen_seed, what)
            return
        reference = self.cli_reference[reference_key(kind, preset)]
        if kind == "pairwise":
            same = same_json_results(json.loads(stdout), json.loads(reference["stdout"]))
        elif kind in ("drop", "duplicate"):
            got = parse_reversal(stdout)
            same = bool(got) and got == parse_reversal(reference["stdout"])
        else:
            same = same_rankings(parse_compare(stdout), parse_compare(reference["stdout"]))
        if not same or code != reference["exit"]:
            self.fail(key, f"{what}: output differs from the recorded reference")


def _close(a: list, b: list, tolerance: float) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tolerance for x, y in zip(a, b))


def same_rankings(got, expected) -> bool:
    """Parsed `rank`/`compare` outputs: equal orders and ties, scores and tau within rounding."""
    orders, scores, ties, tau = got
    if not orders or orders != expected[0] or ties != expected[2] or tau.keys() != expected[3].keys():
        return False
    if not all(_close(scores[m], expected[1][m], SCORE_TOLERANCE) for m in orders):
        return False
    return all(abs(tau[pair] - expected[3][pair]) <= TAU_TOLERANCE for pair in tau)


def same_json_results(got: dict, expected: dict) -> bool:
    """`rank --format json` payloads: equal methods, orders and ties, scores within rounding."""
    a, b = got["results"], expected["results"]
    if not a or len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x["method"], x["order"], x["ties"]) != (y["method"], y["order"], y["ties"]):
            return False
        if x["scores"].keys() != y["scores"].keys() or not all(
            math.isclose(x["scores"][k], y["scores"][k], rel_tol=1e-9, abs_tol=1e-12)
            for k in x["scores"]
        ):
            return False
    return True


def _positions(order, labels):
    where = {label: i for i, label in enumerate(order)}
    return [where[label] for label in labels]


def parse_compare(text: str):
    """Orders, printed scores, ties and the tau table from `rank` or `compare` text output."""
    orders, scores, ties, tau = {}, {}, {}, {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("method: "):
            method = line[len("method: ") :].strip()
            orders[method], scores[method] = [], []
            i += 2  # skip the column header
            while i < len(lines) and lines[i].strip() and not lines[i].startswith("ties:"):
                _, label, score = lines[i].split()
                orders[method].append(label)
                scores[method].append(float(score))
                i += 1
        elif line.startswith("ties: ") and orders:
            ties[method] = line[len("ties: ") :]
            i += 1
        elif line.startswith("pairwise kendall tau:"):
            header = lines[i + 1].split()
            for row in lines[i + 2 :]:
                if row.strip():
                    name, *cells = row.split()
                    tau.update({(name, b): float(c) for b, c in zip(header, cells)})
            break
        else:
            i += 1
    return orders, scores, ties, tau


def parse_reversal(text: str):
    """(method, reversed, baseline, after, flips) per block of `reversal` text output."""
    reports = []
    for line in text.splitlines():
        if line.startswith("method: "):
            method, _, flag = line[len("method: ") :].partition("  reversed: ")
            reports.append([method.strip(), flag.strip() == "yes", [], [], ""])
        elif line.startswith("  baseline: "):
            reports[-1][2] = line[len("  baseline: ") :].split(" > ")
        elif line.startswith("  after:"):
            reports[-1][3] = line[len("  after:") :].strip().split(" > ")
        elif line.startswith("  flips:"):
            reports[-1][4] = line[len("  flips:") :].strip()
    return [tuple(r) for r in reports]
