"""Run the same CLI invocations against two source trees and compare the results.

usage: python tools/cli_parity.py OLD/src NEW/src

Each invocation runs ``netselect.cli.main`` in a fresh interpreter with
PYTHONPATH set to one tree. Stdout, stderr and the exit code must match byte
for byte. The cases: the six ``cli_table2`` benchmark commands for each
preset; ``rank --method all`` as text/json/csv; ``compare`` as text/json;
``reversal --drop``/``--duplicate`` as text/json on the bundled table and,
with ``--method all``, on a generated n = 1500 matrix; two ``--montecarlo``
runs; ``gen``; every exit-3/4/5 case of ``tests/test_cli.py``; and
``reversal --drop`` given ``--spec`` and ``--seed``, which only
``--montecarlo`` reads. For each differing case it prints the first line
that differs. The last line of output is ``K of N identical``; the exit
code is 1 when any case differs.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRWISE = str(ROOT / "perfbench" / "pairwise.csv")
EXAMPLE_SCENARIO = ROOT / "src" / "netselect" / "data" / "example_scenario.json"

# cli.main in a fresh interpreter; a leading EXPLODE makes the eigenvector step fail (exit 5)
DRIVER = """import sys
from netselect import cli
from netselect.weighting import ConvergenceError
argv = sys.argv[1:]
if argv[0] == "EXPLODE":
    def explode(pm):
        raise ConvergenceError(1000, 0.25)
    cli.principal_eigenvector, argv = explode, argv[1:]
sys.exit(cli.main(argv))
"""


def write_inputs(work: Path) -> None:
    bad_profile = {
        "name": "bad",
        "bandwidth_range": [10, 1],
        "delay_range": [1, 2],
        "plr_range": [0.1, 0.2],
        "cost_level": 1,
        "energy_coeffs": {"uplink": 1, "downlink": 1, "baseline": 1},
    }
    large_spec = json.loads(EXAMPLE_SCENARIO.read_text(encoding="utf-8"))
    large_spec["instances_per_profile"] = 500
    for name, text in {
        "bad.csv": "alternative,a,b\nx,1,notanumber\n",
        "w2.json": "[0.5, 0.5]",
        "zero.csv": "alternative,Bandwidth,Delay,PLR,Energy,Cost\nx,1,1,1,1,0\ny,2,2,2,2,1\n",
        "custom.csv": "alternative,speed,price\nx,10,5\ny,20,2\n",
        "wsum.csv": "0.5,0.5,0.5,0.5,0.5\n",
        "nonrecip.csv": "1,3\n0.5,1\n",
        "pm2.csv": "1,2\n0.5,1\n",
        "w_half.csv": "0.5,0.5\n",
        "badspec.json": json.dumps({"profiles": [bad_profile]}),
        "large_spec.json": json.dumps(large_spec),
    }.items():
        (work / name).write_text(text, encoding="utf-8")


def cases(work: Path, large_csv: str) -> list[list[str]]:
    f = lambda name: str(work / name)  # noqa: E731
    t2 = ["--matrix", "table2", "--weights", "preset:voip"]
    out = [
        c
        for p in ("voip", "video", "best_effort")  # the six cli_table2 commands
        for c in (
            ["rank", "--matrix", "table2", "--weights", f"preset:{p}", "--method", "all"],
            ["compare", "--matrix", "table2", "--weights", f"preset:{p}"],
            ["reversal", "--matrix", "table2", "--weights", f"preset:{p}", "--drop", "N(4)"],
            ["reversal", "--matrix", "table2", "--weights", f"preset:{p}", "--duplicate", "N(2)"],
            ["gen", "--seed", str(len(p))],
            ["rank", "--matrix", "table2", "--weights", f"pairwise:{PAIRWISE}", "--format", "json"],
        )
    ]
    out += [["rank", *t2, "--method", "all", "--format", x] for x in ("text", "json", "csv")]
    out += [["compare", *t2, "--format", x] for x in ("text", "json")]
    out += [
        ["reversal", *t2, *m, "--format", x]
        for m in (["--drop", "N(4)"], ["--duplicate", "N(2)"])
        for x in ("text", "json")
    ]
    out += [
        ["reversal", "--matrix", large_csv, "--weights", "preset:voip", "--method", "all", m, "LTE-17"]
        for m in ("--drop", "--duplicate")
    ]
    out += [
        ["reversal", "--weights", "preset:voip", "--montecarlo", "300", "--seed", "7"],
        ["reversal", "--weights", "preset:voip", "--montecarlo", "300", "--seed", "7",
         "--tie", "stable", "--alpha", "9", "--format", "json"],
        ["gen", "--seed", "5"],
    ]
    out += [  # the exit-3/4/5 cases of tests/test_cli.py
        ["rank", "--matrix", "/no/such/file.csv", "--weights", "preset:voip"],
        ["rank", "--matrix", f("bad.csv"), "--weights", "preset:voip"],
        ["rank", "--matrix", f("zero.csv"), "--weights", "preset:voip"],
        ["rank", "--matrix", "table2", "--weights", f("w2.json")],
        ["rank", *t2, "--method", "msaw", "--alpha", "3"],
        ["rank", "--matrix", f("custom.csv"), "--weights", "preset:voip"],
        ["rank", "--matrix", "table2", "--weights", f("wsum.csv"), "--method", "saw"],
        ["rank", "--matrix", "table2", "--weights", "preset:gaming"],
        ["rank", "--matrix", "table2", "--weights", "pairwise:" + f("nonrecip.csv")],
        ["EXPLODE", "rank", "--matrix", "table2", "--weights", "pairwise:" + f("pm2.csv")],
        ["reversal", *t2, "--drop", "N(9)"],
        ["reversal", *t2, "--method", "saw", "--drop", "N(4)", "--spec", "/no/such.json",
         "--seed", "3"],
        ["gen", "--spec", f("badspec.json")],
        ["gen", "--spec", "/no/spec.json"],
        ["rank", "--matrix", f("custom.csv"), "--weights", f("w_half.csv"),
         "--directions", "benefit,upward"],
        ["rank", "--matrix", f("custom.csv"), "--weights", f("w_half.csv"),
         "--directions", "benefit,upward,cost"],
    ]
    return out


def run(src: str, argv: list[str]) -> subprocess.CompletedProcess:
    # No bytecode is written, so a compared tree is left as it was found: a
    # __pycache__ in one tree and not the other would skew a later benchmark.
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-c", DRIVER, *argv], capture_output=True, env=env)


def first_difference(a: subprocess.CompletedProcess, b: subprocess.CompletedProcess) -> str:
    for stream in ("stdout", "stderr"):
        lines_a = getattr(a, stream).decode(errors="replace").splitlines()
        lines_b = getattr(b, stream).decode(errors="replace").splitlines()
        for k in range(max(len(lines_a), len(lines_b))):
            left = lines_a[k] if k < len(lines_a) else "<end>"
            right = lines_b[k] if k < len(lines_b) else "<end>"
            if left != right:
                return f"    {stream} line {k + 1}:\n      - {left}\n      + {right}"
    return ""


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/cli_parity.py OLD/src NEW/src", file=sys.stderr)
        return 2
    old, new = (str(Path(src).resolve()) for src in args)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work)
        large_csv = str(work / "large.csv")
        gen = ["gen", "--spec", str(work / "large_spec.json"), "--seed", "5", "--out", large_csv]
        if run(old, gen).returncode != 0:
            print(f"could not generate {large_csv} with {old}", file=sys.stderr)
            return 2
        all_cases = cases(work, large_csv)
        differ = 0
        for case in all_cases:
            a, b = run(old, case), run(new, case)
            same = (a.returncode, a.stdout, a.stderr) == (b.returncode, b.stdout, b.stderr)
            differ += not same
            print("same" if same else "DIFFERENT", "exit", a.returncode, b.returncode, *case)
            if not same:
                print(first_difference(a, b))
    print(f"{len(all_cases) - differ} of {len(all_cases)} identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
