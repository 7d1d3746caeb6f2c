"""Command-line front-end.

Subcommands:
  rank      score and order alternatives with one or more methods
  compare   rank with all five methods and cross-tabulate their agreement
  reversal  drop/duplicate experiments and the Monte-Carlo frequency study
  gen       draw a synthetic matrix from a scenario spec and write it as CSV

The argparse parser declares and checks every argument. Each subcommand
names its ``cmd_*`` function with ``set_defaults(run=...)``, and that
function reads the parsed namespace directly.

Exit codes: 0 ok, 2 usage, 3 I/O, 4 validation (bad file content, invariant
violations, unknown labels), 5 numeric failure.
"""

import argparse
import json
import sys
from dataclasses import asdict

from .analysis import (
    AgreementReport,
    duplication_experiment,
    monte_carlo_reversal,
    reversal_experiment,
)
from .core import DecisionMatrix, RankingResult, require_valid
from .io import (
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
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_NUMERIC = 5

BUILTIN_MATRICES = ("table2", "reference")


def _parse_methods(raw: str) -> tuple[str, ...]:
    tokens = [token.strip().lower() for token in raw.split(",") if token.strip()]
    if not tokens:
        raise argparse.ArgumentTypeError("at least one method must be requested")
    if "all" in tokens:
        return METHODS
    for token in tokens:
        if token not in METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {token!r}; expected one of {', '.join(METHODS)} or 'all'"
            )
    return tuple(dict.fromkeys(tokens))


def _parse_directions(raw: str) -> tuple[str, ...] | None:
    # An empty value counts as no flag: the sidecar or the default rule applies.
    return tuple(token.strip() for token in raw.split(",")) if raw else None


def _parse_trials(raw: str) -> int:
    try:
        trials = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if trials < 1:
        raise argparse.ArgumentTypeError(f"needs at least one trial, got {trials}")
    return trials


def _load_matrix(args) -> DecisionMatrix:
    if args.matrix in BUILTIN_MATRICES:
        if args.directions is not None:
            args.parser.error(
                f"argument --directions: not allowed with --matrix {args.matrix}, "
                "whose directions are built in"
            )
        return require_valid(reference_matrix())
    return require_valid(read_matrix_csv(args.matrix, directions=args.directions))


def _load_weights(source: str):
    if source.startswith("preset:"):
        return preset_weights(source.split(":", 1)[1])
    if source.startswith("pairwise:"):
        pm = read_pairwise_csv(source.split(":", 1)[1])
        return principal_eigenvector(pm).weights
    return read_weights(source)


def _render_rankings_text(results: list[RankingResult]) -> None:
    for result in results:
        print(f"method: {result.method}")
        labels = list(result.order)
        width = max(len("alternative"), *(len(label) for label in labels))
        print(f"rank  {'alternative'.ljust(width)}  score")
        for position, label in enumerate(labels, start=1):
            score = f"{result.scores[label]:.6f}"
            print(f"{str(position).ljust(4)}  {label.ljust(width)}  {score}")
        if result.ties:
            groups = "; ".join(", ".join(group) for group in result.ties)
            print(f"ties: {groups}")
        print("")


def _render_rankings_csv(results: list[RankingResult]) -> None:
    print("method,alternative,score,rank")
    for result in results:
        position = {label: i + 1 for i, label in enumerate(result.order)}
        for label in result.scores:
            print(f"{result.method},{label},{result.scores[label]!r},{position[label]}")


def cmd_rank(args) -> int:
    """`rank`, and `compare`, which adds the pairwise Kendall-tau agreement table."""
    matrix = _load_matrix(args)
    weights = _load_weights(args.weights)
    tie = TiePolicy(args.tie)
    results = [rank(matrix, weights, method, tie=tie, alpha=args.alpha) for method in args.method]
    report = None
    if args.command == "compare":
        report = AgreementReport.from_orders(args.method, {r.method: r.order for r in results})
    if args.fmt == "csv":
        _render_rankings_csv(results)
    elif args.fmt == "json":
        payload = {"results": [asdict(r) for r in results]}
        if report is not None:
            payload["agreement"] = asdict(report)
        print(json.dumps(payload, indent=2))
    else:
        _render_rankings_text(results)
        if report is not None:
            width = max(len(m) for m in report.methods)
            print("pairwise kendall tau:")
            header = " ".join(m.rjust(max(width, 7)) for m in report.methods)
            print(f"{''.ljust(width)} {header}")
            for method, row in zip(report.methods, report.tau):
                cells = " ".join(f"{tau:+.4f}".rjust(max(width, 7)) for tau in row)
                print(f"{method.ljust(width)} {cells}")
    return EXIT_OK


def cmd_reversal(args) -> int:
    if args.montecarlo is None and args.matrix is None:
        args.parser.error("--drop and --duplicate require --matrix")
    if args.montecarlo is None:
        for flag, value in (("--spec", args.spec), ("--seed", args.seed)):
            if value is not None:
                args.parser.error(f"argument {flag}: only --montecarlo reads it")
    if args.montecarlo is not None and args.matrix is not None:
        args.parser.error(
            "argument --matrix: not allowed with --montecarlo, "
            "which draws its matrices from --spec (default: the bundled example scenario)"
        )
    if args.montecarlo is not None and args.directions is not None:
        args.parser.error(
            "argument --directions: not allowed with --montecarlo, "
            "whose scenario matrices have built-in directions"
        )
    weights = _load_weights(args.weights)
    tie = TiePolicy(args.tie)
    if args.montecarlo is not None:
        spec = read_scenario(args.spec) if args.spec else example_scenario()
        report = monte_carlo_reversal(
            spec,
            weights,
            args.method,
            trials=args.montecarlo,
            seed=args.seed,
            tie=tie,
            alpha=args.alpha,
        )
        if args.fmt == "json":
            frequencies = {m: report.frequency(m) for m in report.methods}
            print(json.dumps({**asdict(report), "frequencies": frequencies}, indent=2))
        else:
            print(f"trials: {report.trials}  seed: {report.seed}")
            width = max(len("method"), *(len(m) for m in report.methods))
            print(f"{'method'.ljust(width)}  reversals  frequency")
            for method in report.methods:
                count = str(report.reversal_counts[method]).ljust(9)
                print(f"{method.ljust(width)}  {count}  {report.frequency(method):.4f}")
        return EXIT_OK

    matrix = _load_matrix(args)
    dropping = args.drop is not None
    experiment = reversal_experiment if dropping else duplication_experiment
    label = args.drop if dropping else args.duplicate
    reports = [
        experiment(matrix, weights, m, label, tie=tie, alpha=args.alpha) for m in args.method
    ]
    if args.fmt == "json":
        print(json.dumps({"reports": [asdict(r) for r in reports]}, indent=2))
    else:
        for report in reports:
            flag = "yes" if report.reversed else "no"
            after = report.reduced_order if dropping else report.filtered_order
            print(f"method: {report.method}  reversed: {flag}")
            print(f"  baseline: {' > '.join(report.baseline_order)}")
            print(f"  after:    {' > '.join(after)}")
            if report.flips:
                pairs = ", ".join(f"({a}, {b})" for a, b in report.flips)
                print(f"  flips:    {pairs}")
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = read_scenario(args.spec) if args.spec else example_scenario()
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    matrix = generate_matrix(spec)
    if args.out:
        write_matrix_csv(matrix, args.out)
    else:
        sys.stdout.write(matrix_to_csv_text(matrix))
    return EXIT_OK


def _add_common_ranking_args(
    parser: argparse.ArgumentParser,
    default_method: str,
    formats=("text", "json"),
    matrix_required=True,
) -> None:
    parser.add_argument(
        "--matrix",
        required=matrix_required,
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
        type=_parse_methods,
        default=default_method,
        help=f"comma-separated subset of {{{','.join(METHODS)}}} or 'all'",
    )
    parser.add_argument(
        "--directions",
        type=_parse_directions,
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
        choices=formats,
        help="output format (default: text)",
    )
    parser.set_defaults(parser=parser)


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
    _add_common_ranking_args(p_rank, default_method="msaw", formats=("text", "json", "csv"))
    p_rank.set_defaults(run=cmd_rank)

    p_compare = sub.add_parser(
        "compare", help="rank with all methods and report pairwise agreement"
    )
    _add_common_ranking_args(p_compare, default_method="all")
    p_compare.set_defaults(run=cmd_rank)

    p_rev = sub.add_parser("reversal", help="rank-reversal experiments")
    _add_common_ranking_args(p_rev, default_method="all", matrix_required=False)
    mode = p_rev.add_mutually_exclusive_group(required=True)
    mode.add_argument("--drop", help="label to remove from --matrix for the drop experiment")
    mode.add_argument(
        "--duplicate", help="label of --matrix to replicate for the duplication experiment"
    )
    mode.add_argument(
        "--montecarlo",
        type=_parse_trials,
        metavar="TRIALS",
        help="measure reversal frequency over random scenarios drawn from --spec instead "
        "(takes no --matrix)",
    )
    p_rev.add_argument("--seed", type=int, help="base seed for --montecarlo")
    p_rev.add_argument(
        "--spec",
        help="scenario JSON for --montecarlo (default: bundled example scenario)",
    )
    p_rev.set_defaults(run=cmd_reversal)

    p_gen = sub.add_parser("gen", help="generate a synthetic matrix CSV")
    p_gen.add_argument("--spec", help="scenario JSON (default: bundled example scenario)")
    p_gen.add_argument("--seed", type=int, help="override the spec's seed")
    p_gen.add_argument(
        "--out", help="output CSV path (writes a .directions.json sidecar too); default stdout"
    )
    p_gen.set_defaults(run=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except KeyError as exc:
        print(f"error: unknown label {exc.args[0]!r}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
