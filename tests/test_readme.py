"""The README's examples run as written: its CLI lines and its Quick start block."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

from netselect.cli import BUILTIN_MATRICES, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def cli_examples() -> list[list[str]]:
    return [
        shlex.split(line)[1:]
        for block in code_blocks("sh")
        for line in block.splitlines()
        if line.startswith("netselect ")
    ]


def needs_only_bundled_inputs(argv: list[str]) -> bool:
    flags = dict(zip(argv, argv[1:]))
    return (
        flags.get("--matrix", "table2") in BUILTIN_MATRICES
        and flags.get("--weights", "preset:").startswith("preset:")
        and "--spec" not in flags
    )


def test_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runnable = [argv for argv in cli_examples() if needs_only_bundled_inputs(argv)]
    assert {argv[0] for argv in runnable} == {"rank", "compare", "reversal", "gen"}
    for argv in runnable:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    assert (tmp_path / "scenario.csv").is_file()


def test_quick_start_prints_what_its_comments_say():
    (block,) = code_blocks("python")
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(block, namespace)
    checked = []
    for expr, comment in re.findall(r"^print\((.+?)\)\s+# (.+)$", block, re.M):
        for text in (comment, comment.split()[0]):
            try:
                expected = ast.literal_eval(text)
            except (ValueError, SyntaxError):
                continue
            assert eval(expr, namespace) == expected, expr
            checked.append(expr)
            break
    assert checked == ["result.order", "report.reversed"]
