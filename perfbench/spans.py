"""Span recorders installed around netselect's public functions, from outside the package.

Each wrapped call records a span (name, parent, start, end, operation id) and
adds its self time (duration minus the time its child spans cover) to a
per-name total. A name imported with ``from .core import require_valid`` is a
copy of the binding, so every netselect module holding the original object is
rebound. Spans stay in memory and are written out by :meth:`Tracer.dump`.

Run as a script, it traces one CLI invocation and writes the tracer's state
to a JSON file:  ``python3 perfbench/spans.py OUT.json -- rank --matrix table2 ...``
"""

import collections
import functools
import importlib
import json
import os
import sys
import time

# (module, attribute, span name); "Class.method" patches the class.
TARGETS = (
    ("netselect.rng", "SplitMix64.next_uint64", "rng.next_uint64"),
    ("netselect.rng", "SplitMix64.uniform", "rng.uniform"),
    ("netselect.rng", "SplitMix64.randrange", "rng.randrange"),
    ("netselect.rng", "derive_seed", "rng.derive_seed"),
    ("netselect.scenario", "generate_matrix", "scenario.generate_matrix"),
    ("netselect.scenario", "example_scenario", "scenario.example_scenario"),
    ("netselect.scenario", "reference_matrix", "scenario.reference_matrix"),
    ("netselect.core", "validate_matrix", "core.validate_matrix"),
    ("netselect.core", "require_valid", "core.require_valid"),
    ("netselect.core", "normalize", "core.normalize"),
    ("netselect.core", "as_weight_array", "core.as_weight_array"),
    ("netselect.core", "drop_alternative", "core.drop_alternative"),
    ("netselect.core", "duplicate_alternative", "core.duplicate_alternative"),
    ("netselect.core", "RankingResult.from_scores", "core.from_scores"),
    ("netselect.methods", "rank", "methods.rank"),
    ("netselect.methods", "rank_msaw", "methods.rank_msaw"),
    ("netselect.methods", "rank_saw", "methods.rank_saw"),
    ("netselect.methods", "rank_wpm", "methods.rank_wpm"),
    ("netselect.methods", "rank_topsis", "methods.rank_topsis"),
    ("netselect.methods", "rank_ahp", "methods.rank_ahp"),
    ("netselect.analysis", "kendall_tau", "analysis.kendall_tau"),
    ("netselect.analysis", "_flipped_pairs", "analysis._flipped_pairs"),
    ("netselect.analysis", "reversal_experiment", "analysis.reversal_experiment"),
    ("netselect.analysis", "duplication_experiment", "analysis.duplication_experiment"),
    ("netselect.analysis", "agreement_report", "analysis.agreement_report"),
    ("netselect.analysis", "monte_carlo_reversal", "analysis.monte_carlo_reversal"),
    ("netselect.weighting", "principal_eigenvector", "weighting.principal_eigenvector"),
    ("netselect.weighting", "preset_weights", "weighting.preset_weights"),
    ("netselect.io", "read_matrix_csv", "io.read_matrix_csv"),
    ("netselect.io", "write_matrix_csv", "io.write_matrix_csv"),
    ("netselect.io", "matrix_to_csv_text", "io.matrix_to_csv_text"),
    ("netselect.io", "read_pairwise_csv", "io.read_pairwise_csv"),
    ("netselect.io", "read_weights", "io.read_weights"),
    ("netselect.io", "read_scenario", "io.read_scenario"),
    ("netselect.cli", "main", "cli.main"),
)
LAYERS = ("rng", "scenario", "core", "methods", "analysis", "weighting", "io", "cli")
KEEP_SPANS = 200_000


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.calls = collections.Counter()
        self.self_ns = collections.Counter()
        self.counters = collections.Counter()
        self.spans = []
        self.op = ""
        self._stack = []  # [span id, child ns] of the open spans
        self._next_id = 0
        self._tau_pairs = set()
        self._restore = []

    def wrap(self, name, fn, after=None):
        calls, self_ns, spans, stack = self.calls, self.self_ns, self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < KEEP_SPANS:
                    spans.append((span_id, parent, name, start, end, self.op))
            if after is not None:
                after(args, result)
            return result

        return recorded

    # Counters taken at the span boundaries.
    def _tau_after(self, args, _result):
        a, b = args[0], args[1]
        n = len(a)
        self.counters["analysis.kendall_tau.pairs"] += n * (n - 1) // 2
        key = (self.op, frozenset((id(a), id(b))))
        if a is not b and key not in self._tau_pairs:
            self._tau_pairs.add(key)
            self.counters["analysis.kendall_tau.useful"] += 1

    def _eigen_after(self, _args, result):
        self.counters["weighting.principal_eigenvector.iterations"] += result.iterations

    def _read_after(self, args, _result):
        self.counters["io.read_matrix_csv.bytes"] += os.path.getsize(args[0])

    def _write_after(self, args, _result):
        self.counters["io.write_matrix_csv.bytes"] += os.path.getsize(args[1])

    def _rank_after(self, _args, _result):
        self.counters[f"methods.rank.calls@{self.op.split(':')[0]}"] += 1

    def install(self):
        """Wrap every target and rebind it in each netselect module that holds it."""
        hooks = {
            "analysis.kendall_tau": self._tau_after,
            "weighting.principal_eigenvector": self._eigen_after,
            "io.read_matrix_csv": self._read_after,
            "io.write_matrix_csv": self._write_after,
            "methods.rank": self._rank_after,
        }
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "netselect"]
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(name, raw.__func__, hooks.get(name)))
                else:
                    patched = self.wrap(name, raw, hooks.get(name))
                setattr(cls, method, patched)
                self._restore.append((cls, method, raw))
                continue
            original = getattr(owner, attr)
            patched = self.wrap(name, original, hooks.get(name))
            for module in modules:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, patched)
                    self._restore.append((module, attr, original))

    def uninstall(self):
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def state(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counters": dict(self.counters),
        }

    def merge(self, state: dict):
        """Add the totals of a tracer that ran in another process."""
        self.calls.update(state["calls"])
        self.self_ns.update(state["self_ns"])
        self.counters.update(state["counters"])

    def dump(self, path):
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _trace_cli(out_path: str, argv: list[str]) -> int:
    import netselect.cli  # noqa: F401  (loads every layer before patching)

    tracer = Tracer()
    tracer.op = argv[0] if argv else ""
    tracer.install()
    try:
        code = sys.modules["netselect.cli"].main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.state(), handle)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: spans.py OUT.json -- CLI-ARGS...")
    sys.exit(_trace_cli(sys.argv[1], sys.argv[3:]))
