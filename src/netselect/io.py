"""File formats: matrix CSV with optional JSON sidecar, weight files, scenario JSON.

Matrix CSV layout: header ``alternative,<crit1>,<crit2>,...`` followed by
one row per alternative (label, then numeric values). Criterion directions
are never encoded in the CSV; they come from, in priority order, an
explicit argument, a ``<file>.directions.json`` sidecar, or the default
rule for the standard five column names. Floats are written with their
shortest round-trip representation so write-then-read is lossless.
"""

import csv
import json
from dataclasses import asdict
from io import StringIO
from pathlib import Path

from .core import CriterionSpec, DecisionMatrix, Direction, WeightVector
from .scenario import STANDARD_CRITERIA, ScenarioSpec, scenario_from_dict
from .weighting import PairwiseMatrix

# Directions may be defaulted only for this exact header (matching the
# bundled benchmark); any other header requires explicit directions.
DEFAULT_DIRECTION_NAMES = tuple(spec.name for spec in STANDARD_CRITERIA)


class ParseError(ValueError):
    """A file exists but its content does not match the expected format."""


def sidecar_path(csv_path: str | Path) -> Path:
    return Path(str(csv_path) + ".directions.json")


def _read_text(path: Path, newline: str | None = None) -> str:
    """A file's text; bytes that are not UTF-8 become a ParseError naming the file.

    ``newline`` is passed to :func:`open`: None translates line endings to
    ``"\n"``, ``""`` keeps them as the csv module expects.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None


def _read_json(path: Path):
    """Decode a JSON file; a syntax error becomes a ParseError naming the file."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None


def _parse_directions(raw, count: int, origin: str) -> list[Direction]:
    """Directions from ``Direction`` members or their names; the count is checked first."""
    if not isinstance(raw, (list, tuple)):
        raise ParseError(f"{origin}: directions must be a list")
    if len(raw) != count:
        raise ParseError(f"{origin}: expected {count} directions, got {len(raw)}")
    try:
        return [d if isinstance(d, Direction) else Direction.parse(str(d)) for d in raw]
    except ValueError as exc:
        raise ParseError(f"{origin}: {exc}") from None


def read_matrix_csv(path: str | Path, directions=None) -> DecisionMatrix:
    """Read a decision matrix; resolve directions from argument, sidecar, or defaults."""
    path = Path(path)
    rows = csv.reader(StringIO(_read_text(path, newline=""), newline=""))
    rows = [row for row in rows if row]
    if len(rows) < 2:
        raise ParseError(f"{path}: need a header and at least one data row")
    header = rows[0]
    if len(header) < 2 or header[0].strip().lower() != "alternative":
        raise ParseError(f"{path}: first header cell must be 'alternative'")
    names = [cell.strip() for cell in header[1:]]

    labels: list[str] = []
    values: list[list[float]] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: line {line_no} has {len(row)} fields, expected {len(header)}"
            )
        labels.append(row[0].strip())
        parsed = []
        for col, cell in enumerate(row[1:], start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: line {line_no}, column {col}: {cell!r} is not a number"
                ) from None
        values.append(parsed)

    units = [""] * len(names)
    resolved: list[Direction] | None = None
    if directions is not None:
        resolved = _parse_directions(tuple(directions), len(names), str(path))
    else:
        sidecar = sidecar_path(path)
        if sidecar.exists():
            meta = _read_json(sidecar)
            if not isinstance(meta, dict) or "directions" not in meta:
                raise ParseError(f"{sidecar}: expected an object with a 'directions' list")
            resolved = _parse_directions(meta["directions"], len(names), str(sidecar))
            raw_units = meta.get("units")
            if raw_units is not None:
                if not isinstance(raw_units, list) or len(raw_units) != len(names):
                    raise ParseError(f"{sidecar}: 'units' must list one unit per criterion")
                units = [str(u) for u in raw_units]
        elif tuple(names) == DEFAULT_DIRECTION_NAMES:
            resolved = [spec.direction for spec in STANDARD_CRITERIA]
            units = [spec.unit for spec in STANDARD_CRITERIA]
    if resolved is None:
        raise ParseError(
            f"{path}: criterion directions are required (pass them explicitly or "
            f"provide {sidecar_path(path).name}); defaults apply only to columns "
            f"named {', '.join(DEFAULT_DIRECTION_NAMES)}"
        )

    criteria = tuple(
        CriterionSpec(name, direction, unit)
        for name, direction, unit in zip(names, resolved, units)
    )
    return DecisionMatrix(labels, criteria, values)


def matrix_to_csv_text(matrix: DecisionMatrix) -> str:
    """The matrix CSV serialization: a header, then one row per alternative."""
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["alternative", *matrix.criterion_names])
    # csv writes a float as its repr, the shortest string that reads back exactly.
    rows = zip(matrix.alternatives, matrix.values.tolist())
    writer.writerows([label, *row] for label, row in rows)
    return buffer.getvalue()


def write_matrix_csv(matrix: DecisionMatrix, path: str | Path) -> None:
    """Write :func:`matrix_to_csv_text` and the directions/units sidecar next to it."""
    path = Path(path)
    path.write_text(matrix_to_csv_text(matrix), encoding="utf-8", newline="")
    meta = {
        "directions": [spec.direction.value for spec in matrix.criteria],
        "units": [spec.unit for spec in matrix.criteria],
    }
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    sidecar_path(path).write_text(text, encoding="utf-8")


def read_weights(path: str | Path) -> WeightVector:
    """Read a weight vector from a one-row CSV or a JSON array."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        cells = _read_json(path)
        if not isinstance(cells, list):
            raise ParseError(f"{path}: expected a JSON array of weights")
    else:
        rows = [row for row in csv.reader(_read_text(path).splitlines()) if row]
        if len(rows) != 1:
            raise ParseError(f"{path}: expected a single CSV row of weights")
        cells = rows[0]
    try:
        weights = tuple(float(cell) for cell in cells)
    except (TypeError, ValueError):
        raise ParseError(f"{path}: weights must all be numbers") from None
    try:
        return WeightVector(weights)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_pairwise_csv(path: str | Path) -> PairwiseMatrix:
    """Read an m x m pairwise comparison grid (no header, numbers only)."""
    path = Path(path)
    rows = [row for row in csv.reader(_read_text(path).splitlines()) if row]
    if not rows:
        raise ParseError(f"{path}: empty pairwise matrix")
    grid = []
    for line_no, row in enumerate(rows, start=1):
        if len(row) != len(rows):
            raise ParseError(
                f"{path}: line {line_no} has {len(row)} fields, expected {len(rows)} (square grid)"
            )
        try:
            grid.append([float(cell) for cell in row])
        except ValueError:
            raise ParseError(f"{path}: line {line_no} contains a non-numeric cell") from None
    try:
        return PairwiseMatrix(grid)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_scenario(path: str | Path) -> ScenarioSpec:
    """Read a scenario spec from JSON; validation errors are prefixed with the path."""
    path = Path(path)
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected a JSON object")
    try:
        return scenario_from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_scenario(spec: ScenarioSpec, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(asdict(spec), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
