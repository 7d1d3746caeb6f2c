"""Command-line front-end.

Subcommands:
  rank      score and order alternatives with one or more methods
  compare   rank with all five methods and cross-tabulate their agreement
  reversal  drop/duplicate experiments and the Monte-Carlo frequency study
  gen       draw a synthetic matrix from a scenario spec and write it as CSV

Exit codes: 0 ok, 2 usage, 3 I/O, 4 validation (bad file content, invariant
violations, unknown labels), 5 numeric failure.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from .analysis import (
    AgreementReport,
    duplication_experiment,
    monte_carlo_reversal,
    reversal_experiment,
)
from .core import DecisionMatrix, MatrixValidationError, RankingResult, require_valid
from .io import (
    ParseError,
    matrix_to_csv_text,
    read_matrix_csv,
    read_pairwise_csv,
    read_scenario,
    read_weights,
    write_matrix_csv,
)
from .methods import METHODS, TiePolicy, rank
from .scenario import example_scenario, generate_matrix, reference_matrix
from .weighting import ConvergenceError, preset_weights, principal_eigenvector

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_NUMERIC = 5

BUILTIN_MATRICES = ("table2", "reference")


@dataclass
class RunConfig:
    """Resolved invocation parameters shared by the ranking-style commands."""

    matrix_source: str
    weights_source: str
    methods: tuple[str, ...]
    directions: tuple[str, ...] | None = None
    tie: TiePolicy = TiePolicy.MEAN_RANK
    alpha: int | None = None
    fmt: str = "text"
    agreement: bool = False
    drop: str | None = None
    duplicate: str | None = None
    montecarlo: int | None = None
    seed: int | None = None
    spec: str | None = None


def _parse_methods(raw: str) -> tuple[str, ...]:
    tokens = [token.strip().lower() for token in raw.split(",") if token.strip()]
    if not tokens:
        raise ValueError("at least one method must be requested")
    if "all" in tokens:
        return METHODS
    for token in tokens:
        if token not in METHODS:
            raise ValueError(
                f"unknown method {token!r}; expected one of {', '.join(METHODS)} or 'all'"
            )
    return tuple(dict.fromkeys(tokens))


def _load_matrix(config: RunConfig) -> DecisionMatrix:
    if config.matrix_source in BUILTIN_MATRICES:
        matrix = reference_matrix()
    else:
        matrix = read_matrix_csv(config.matrix_source, directions=config.directions)
    return require_valid(matrix)


def _load_weights(source: str):
    if source.startswith("preset:"):
        return preset_weights(source.split(":", 1)[1])
    if source.startswith("pairwise:"):
        pm = read_pairwise_csv(source.split(":", 1)[1])
        return principal_eigenvector(pm).weights
    return read_weights(source)


def _render_rankings_text(results: list[RankingResult], out) -> None:
    for result in results:
        print(f"method: {result.method}", file=out)
        labels = list(result.order)
        width = max(len("alternative"), *(len(label) for label in labels))
        print(f"rank  {'alternative'.ljust(width)}  score", file=out)
        for position, label in enumerate(labels, start=1):
            score = f"{result.scores[label]:.6f}"
            print(f"{str(position).ljust(4)}  {label.ljust(width)}  {score}", file=out)
        if result.ties:
            groups = "; ".join(", ".join(group) for group in result.ties)
            print(f"ties: {groups}", file=out)
        print("", file=out)


def _render_rankings_csv(results: list[RankingResult], out) -> None:
    print("method,alternative,score,rank", file=out)
    for result in results:
        position = {label: i + 1 for i, label in enumerate(result.order)}
        for label in result.scores:
            print(
                f"{result.method},{label},{result.scores[label]!r},{position[label]}",
                file=out,
            )


def _emit_json(payload: dict, out) -> None:
    print(json.dumps(payload, indent=2), file=out)


def cmd_rank(config: RunConfig, out=None) -> int:
    out = out or sys.stdout
    matrix = _load_matrix(config)
    weights = _load_weights(config.weights_source)
    results = [
        rank(matrix, weights, method, tie=config.tie, alpha=config.alpha)
        for method in config.methods
    ]
    if config.fmt == "csv":
        _render_rankings_csv(results, out)
        return EXIT_OK
    orders = {r.method: r.order for r in results}
    report = AgreementReport.from_orders(config.methods, orders) if config.agreement else None
    if config.fmt == "json":
        payload = {"results": [r.to_dict() for r in results]}
        if report is not None:
            payload["agreement"] = report.to_dict()
        _emit_json(payload, out)
    else:
        _render_rankings_text(results, out)
        if report is not None:
            width = max(len(m) for m in report.methods)
            print("pairwise kendall tau:", file=out)
            header = " ".join(m.rjust(max(width, 7)) for m in report.methods)
            print(f"{''.ljust(width)} {header}", file=out)
            for method, row in zip(report.methods, report.tau):
                cells = " ".join(f"{tau:+.4f}".rjust(max(width, 7)) for tau in row)
                print(f"{method.ljust(width)} {cells}", file=out)
    return EXIT_OK


def cmd_reversal(config: RunConfig, out=None) -> int:
    out = out or sys.stdout
    weights = _load_weights(config.weights_source)
    if config.montecarlo is not None:
        spec = read_scenario(config.spec) if config.spec else example_scenario()
        report = monte_carlo_reversal(
            spec,
            weights,
            config.methods,
            trials=config.montecarlo,
            seed=config.seed,
            tie=config.tie,
            alpha=config.alpha,
        )
        if config.fmt == "json":
            _emit_json(report.to_dict(), out)
        else:
            print(f"trials: {report.trials}  seed: {report.seed}", file=out)
            width = max(len("method"), *(len(m) for m in report.methods))
            print(f"{'method'.ljust(width)}  reversals  frequency", file=out)
            for method in report.methods:
                count = report.reversal_counts[method]
                print(
                    f"{method.ljust(width)}  {str(count).ljust(9)}  "
                    f"{report.frequency(method):.4f}",
                    file=out,
                )
        return EXIT_OK

    matrix = _load_matrix(config)
    if config.drop is not None:
        reports = [
            reversal_experiment(
                matrix, weights, m, config.drop, tie=config.tie, alpha=config.alpha
            )
            for m in config.methods
        ]
    else:
        reports = [
            duplication_experiment(
                matrix, weights, m, config.duplicate, tie=config.tie, alpha=config.alpha
            )
            for m in config.methods
        ]
    if config.fmt == "json":
        _emit_json({"reports": [r.to_dict() for r in reports]}, out)
    else:
        for report in reports:
            flag = "yes" if report.reversed else "no"
            after = report.reduced_order if config.drop is not None else report.filtered_order
            print(f"method: {report.method}  reversed: {flag}", file=out)
            print(f"  baseline: {' > '.join(report.baseline_order)}", file=out)
            print(f"  after:    {' > '.join(after)}", file=out)
            if report.flips:
                pairs = ", ".join(f"({a}, {b})" for a, b in report.flips)
                print(f"  flips:    {pairs}", file=out)
    return EXIT_OK


def cmd_gen(args, out=None) -> int:
    out = out or sys.stdout
    spec = read_scenario(args.spec) if args.spec else example_scenario()
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    matrix = generate_matrix(spec)
    if args.out:
        write_matrix_csv(matrix, args.out)
    else:
        out.write(matrix_to_csv_text(matrix))
    return EXIT_OK


def _add_common_ranking_args(parser: argparse.ArgumentParser, default_method: str) -> None:
    parser.add_argument(
        "--matrix",
        required=True,
        help="matrix CSV path, or 'table2' for the bundled benchmark matrix",
    )
    parser.add_argument(
        "--weights",
        required=True,
        help="weights file (one-row CSV or JSON array), preset:voip|video|best_effort, "
        "or pairwise:FILE to derive them from an m x m comparison grid",
    )
    parser.add_argument(
        "--method",
        default=default_method,
        help=f"comma-separated subset of {{{','.join(METHODS)}}} or 'all'",
    )
    parser.add_argument(
        "--directions",
        help="comma-separated benefit/cost flags, one per criterion "
        "(otherwise taken from a .directions.json sidecar, or defaulted for "
        "the standard column names)",
    )
    parser.add_argument(
        "--tie",
        default="mean",
        choices=[p.value for p in TiePolicy],
        help="tie policy for msaw rank positions (default: mean)",
    )
    parser.add_argument("--alpha", type=int, help="msaw income offset (default: #alternatives)")
    parser.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=("text", "json", "csv"),
        help="output format (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netselect",
        description="Rank candidate networks over weighted criteria and probe rank stability.",
        epilog=(
            "exit codes: 0 ok; 2 usage; 3 I/O (missing/unreadable file); "
            "4 validation (malformed file content, matrix/weight invariant "
            "violations, unknown labels); 5 numeric failure (e.g. eigenvector "
            "non-convergence)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="rank alternatives with one or more methods")
    _add_common_ranking_args(p_rank, default_method="msaw")

    p_compare = sub.add_parser(
        "compare", help="rank with all methods and report pairwise agreement"
    )
    _add_common_ranking_args(p_compare, default_method="all")

    p_rev = sub.add_parser("reversal", help="rank-reversal experiments")
    _add_common_ranking_args(p_rev, default_method="all")
    p_rev.add_argument("--drop", help="label to remove for the drop experiment")
    p_rev.add_argument("--duplicate", help="label to replicate for the duplication experiment")
    p_rev.add_argument(
        "--montecarlo",
        type=int,
        metavar="TRIALS",
        help="measure reversal frequency over random scenarios instead",
    )
    p_rev.add_argument("--seed", type=int, help="base seed for --montecarlo")
    p_rev.add_argument(
        "--spec",
        help="scenario JSON for --montecarlo (default: bundled example scenario)",
    )

    p_gen = sub.add_parser("gen", help="generate a synthetic matrix CSV")
    p_gen.add_argument(
        "--spec", help="scenario JSON (default: bundled example scenario)"
    )
    p_gen.add_argument("--seed", type=int, help="override the spec's seed")
    p_gen.add_argument(
        "--out", help="output CSV path (writes a .directions.json sidecar too); default stdout"
    )
    return parser


def _config_from_args(parser: argparse.ArgumentParser, args) -> RunConfig:
    try:
        methods = _parse_methods(args.method)
    except ValueError as exc:
        parser.error(str(exc))
    directions = None
    if args.directions:
        directions = tuple(token.strip() for token in args.directions.split(","))
    return RunConfig(
        matrix_source=args.matrix,
        weights_source=args.weights,
        methods=methods,
        directions=directions,
        tie=TiePolicy.parse(args.tie),
        alpha=args.alpha,
        fmt=args.fmt,
        agreement=args.command == "compare",
        drop=getattr(args, "drop", None),
        duplicate=getattr(args, "duplicate", None),
        montecarlo=getattr(args, "montecarlo", None),
        seed=getattr(args, "seed", None),
        spec=getattr(args, "spec", None),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "gen":
            return cmd_gen(args)
        config = _config_from_args(parser, args)
        if args.command == "reversal":
            if args.montecarlo is None:
                modes = [m for m in (args.drop, args.duplicate) if m is not None]
                if len(modes) != 1:
                    parser.error("reversal needs exactly one of --drop, --duplicate, --montecarlo")
            else:
                if args.montecarlo < 1:
                    parser.error("--montecarlo needs at least one trial")
                if args.drop is not None or args.duplicate is not None:
                    parser.error("--montecarlo cannot be combined with --drop or --duplicate")
            return cmd_reversal(config)
        return cmd_rank(config)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParseError, MatrixValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except KeyError as exc:
        print(f"error: unknown label {exc.args[0]!r}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
