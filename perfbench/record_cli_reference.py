"""Record the cli_table2 reference outputs (stdout and exit code of each command).

    python3 perfbench/record_cli_reference.py

Run it only on a commit whose CLI output is known to be right; it rewrites
perfbench/cli_reference.json, which the benchmark compares against. The
`gen` command is checked against the reference generator instead.
"""

import json
import os
import subprocess
import sys

from workloads import CLI_KINDS, CLI_REFERENCE, PRESET_NAMES, ROOT, SRC, cli_args, reference_key


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reference = {}
    for kind in CLI_KINDS:
        if kind == "gen":
            continue
        for preset in PRESET_NAMES:
            key = reference_key(kind, preset)
            if key in reference:
                continue
            proc = subprocess.run(
                [sys.executable, "-m", "netselect", *cli_args(kind, preset)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            )
            reference[key] = {"exit": proc.returncode, "stdout": proc.stdout}
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    CLI_REFERENCE.write_text(text, encoding="utf-8")
    print(f"wrote {len(reference)} references to {CLI_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
