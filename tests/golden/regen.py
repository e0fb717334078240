"""Rewrite the expected values of the CLI case corpus from the current tree.

    python tests/golden/regen.py

Each case of cli/cases.json runs as ``python -m schmidt.cli`` on this
checkout's src/, from input/ (argv paths are relative to it) and with
COLUMNS=80, so that argparse wraps its text as in the tests and in CI. The
case's exit code and stderr are written back into cases.json, and its stdout
into the file the case names under tests/golden/. A case that names no file
must print nothing, and cases that name one file must print the same bytes.
A case name given twice in one section stops the script before it writes
anything. Review the diff before committing it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
CASES = GOLDEN / "cli" / "cases.json"


def _refuse_repeated_keys(pairs):
    """``json.loads`` keeps the last of two equal keys, which would drop a case unseen."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"{CASES.name} repeats the key {key!r} in one object")
        doc[key] = value
    return doc


def load_cases():
    """The corpus, {section: {name: case}}; ValueError on a repeated name or field."""
    return json.loads(CASES.read_text(encoding="utf-8"), object_pairs_hook=_refuse_repeated_keys)


def dump_cases(sections):
    """The text of cases.json for ``sections``: one case a line, so that a diff names the cases
    whose output changed."""
    return "{\n" + ",\n".join(
        f"  {json.dumps(section)}: {{\n" + ",\n".join(
            f"    {json.dumps(name)}: {json.dumps(case)}" for name, case in cases.items()
        ) + "\n  }" for section, cases in sections.items()
    ) + "\n}\n"


def main():
    try:
        sections = load_cases()
    except ValueError as exc:
        sys.exit(f"{exc}; nothing was written")
    src = str(GOLDEN.parents[1] / "src")
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    printed = {}
    for section, cases in sections.items():
        for name, case in cases.items():
            child = subprocess.run([sys.executable, "-m", "schmidt.cli", *case["argv"]],
                                   cwd=GOLDEN / "input", env=env, capture_output=True, text=True)
            case["exit"], case["stderr"] = child.returncode, child.stderr
            path = case["stdout"]
            if path is None:
                if child.stdout:
                    sys.exit(f"{section}/{name} printed to stdout: name a file for it in {CASES}")
                continue
            if printed.setdefault(path, child.stdout) != child.stdout:
                sys.exit(f"{section}/{name} and an earlier case name {path} but print other text")
            (GOLDEN / path).write_text(child.stdout, encoding="utf-8")
    CASES.write_text(dump_cases(sections), encoding="utf-8")


if __name__ == "__main__":
    main()
