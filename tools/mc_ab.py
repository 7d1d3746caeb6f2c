"""Time ``monte_carlo_reversal`` in two source trees, in alternating pairs.

usage: python tools/mc_ab.py OLD/src NEW/src [--pairs N] [--trials T]

One persistent interpreter per tree imports ``netselect`` from it and times
one ``monte_carlo_reversal`` call (example scenario, ``preset:voip``, every
method, T trials) per request. After five untimed calls in each tree, pair
i sends seed i to both trees, and the tree that runs first alternates from
pair to pair. Both trees must give the same counts for every seed. The
report gives each tree's median and quartiles in ms per call, the median
and quartiles of the per-pair ratios old/new, and the number of pairs the
new tree won (ties count for neither side).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

CHILD = """import json, sys, time
from netselect import METHODS, example_scenario, monte_carlo_reversal, preset_weights
spec, weights = example_scenario(), preset_weights("voip")
for line in sys.stdin:
    trials, seed = (int(x) for x in line.split())
    start = time.perf_counter()
    report = monte_carlo_reversal(spec, weights, METHODS, trials, seed)
    elapsed = time.perf_counter() - start
    print(json.dumps([elapsed, report.reversal_counts]), flush=True)
"""


class Tree:
    """One interpreter with PYTHONPATH set to a source tree, timing calls on request."""

    def __init__(self, src: str):
        # No bytecode is written, so the tree is left as it was found.
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        self.proc = subprocess.Popen(
            [sys.executable, "-c", CHILD],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def call(self, trials: int, seed: int) -> tuple[float, dict]:
        self.proc.stdin.write(f"{trials} {seed}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("child interpreter exited")
        elapsed, counts = json.loads(line)
        return elapsed, counts

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--pairs", type=int, default=100)
    parser.add_argument("--trials", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    old, new = Tree(args.old), Tree(args.new)
    try:
        for seed in range(5):
            old.call(args.trials, seed)
            new.call(args.trials, seed)
        old_ms, new_ms = [], []
        for seed in range(args.pairs):
            first, second = (old, new) if seed % 2 == 0 else (new, old)
            results = {first: first.call(args.trials, seed), second: second.call(args.trials, seed)}
            (t_old, c_old), (t_new, c_new) = results[old], results[new]
            if c_old != c_new:
                print(f"seed {seed}: counts differ: {c_old} vs {c_new}", file=sys.stderr)
                return 1
            old_ms.append(t_old * 1e3)
            new_ms.append(t_new * 1e3)
    finally:
        old.close()
        new.close()
    ratios = [a / b for a, b in zip(old_ms, new_ms)]
    wins = sum(b < a for a, b in zip(old_ms, new_ms))
    losses = sum(b > a for a, b in zip(old_ms, new_ms))
    print(f"{args.pairs} pairs, {args.trials} trials per call, seeds 0..{args.pairs - 1}")
    for name, xs in (("old", old_ms), ("new", new_ms)):
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        print(f"{name}: median {q2:.2f} ms per call [quartiles {q1:.2f}, {q3:.2f}]")
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    print(f"old/new ratio: median {q2:.3f} [quartiles {q1:.3f}, {q3:.3f}]")
    print(f"new faster in {wins} of {args.pairs} pairs ({losses} slower)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
