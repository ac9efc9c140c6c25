#!/usr/bin/env python3
"""Digest the user-visible output of the CLI, to show that a change moved no byte.

    python3 scripts/output_digest.py

Runs `reggescissors.cli.main` in-process and prints one sha256 per line:

* `suite_seed7`: the stdout of `suite --count 100 --seed 7`;
* `suite_seed2`: the stdout, stderr and exit code of `suite --seed 2`;
* `formula_seed<k>`, k = 1..3: the stdout and exit code of `volume`,
  `decompose`, `verify --which a|b|c` and `orbit` on the first 300
  tetrahedra of the benchmark's `formula` input stream for seed k.

Only the CLI contract is used, so two checkouts can be compared by running
the script of either one against each `src/`.  It takes about half a minute.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from inputs import TetStream  # noqa: E402
from worker import RMAX, STREAM  # noqa: E402

from reggescissors import cli  # noqa: E402

FORMULA_INPUTS = 300
FORMULA_SEEDS = (1, 2, 3)
ANGLE_COMMANDS = (
    ("volume",),
    ("decompose",),
    ("verify", "--which", "a"),
    ("verify", "--which", "b"),
    ("verify", "--which", "c"),
    ("orbit",),
)


def run(argv: list[str]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def sha256(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def formula_digest(seed: int) -> str:
    angles, _ = TetStream(seed, STREAM["formula"], RMAX["formula"]).take(FORMULA_INPUTS)
    h = hashlib.sha256()
    for row in angles:
        tokens = [repr(float(x)) for x in row]
        for command in ANGLE_COMMANDS:
            out, _, code = run([command[0], *tokens, *command[1:]])
            h.update(f"{code}\n{out}\0".encode("utf-8"))
    return h.hexdigest()


def main() -> int:
    out, _, _ = run(["suite", "--count", "100", "--seed", "7"])
    print(f"suite_seed7 {hashlib.sha256(out.encode('utf-8')).hexdigest()}")
    out, err, code = run(["suite", "--seed", "2"])
    print(f"suite_seed2 {sha256(out, err, str(code))}")
    for seed in FORMULA_SEEDS:
        print(f"formula_seed{seed} {formula_digest(seed)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
