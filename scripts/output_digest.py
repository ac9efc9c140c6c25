#!/usr/bin/env python3
"""Digest the user-visible output of the CLI, to show that a change moved no byte.

    python3 scripts/output_digest.py [--check]

Runs `reggescissors.cli.main` in-process and prints one sha256 per line:

* `suite_seed7`: the stdout of `suite --count 100 --seed 7`;
* `suite_seed2`: the stdout, stderr and exit code of `suite --seed 2`;
* `formula_seed<k>`, k = 1..3: the stdout and exit code of `volume`,
  `decompose`, `verify --which a|b|c` and `orbit` on the first 300
  tetrahedra of the benchmark's `formula` input stream for seed k;
* `oracle_seed1`: the stdout and exit code of `oracle` on the first 100
  tetrahedra of the benchmark's `oracle` input stream for seed 1.

Only the CLI contract is used, so two checkouts can be compared by running
the script of either one against each `src/`.  It takes about ten seconds
on a 2-vCPU Xeon.

With `--check` it also compares each digest with the value pinned in
`PINNED`, names the digests that moved, and exits 1 if any did.  A change
that moves output on purpose re-pins the values and says which moved.
"""

from __future__ import annotations

import argparse
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

#: The expected digest of each output, compared by --check.
PINNED = {
    "suite_seed7": "fbded1911cf2fe3aaa5d1482328a1950b488293fea3ef694a31c92d72d7bbbe4",
    "suite_seed2": "3e5c8ca3ffaa4693e7b5d462879aa6a17855457217ddda3c7f763f4c5e36332e",
    "formula_seed1": "b16c972e64879f2d0bc155aeedd64fd476794883fbbce5e0b1ced9aafcbd8a95",
    "formula_seed2": "fc212ac3819cf8b8660e4c5757cc3e13dffb0e0555973b31fa64111089fefb92",
    "formula_seed3": "dbc0b5478952b38f24fdeb00e4d0d565393481ff0e058f4485e722275d7db188",
    "oracle_seed1": "0613425784251c65d3b543524e35c9d9748a3970e5c8d843e50973d91403f490",
}

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
ORACLE_INPUTS = 100


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


def rows_digest(rows, commands) -> str:
    """sha256 of the stdout and exit code of each command on each row of six
    angles."""
    h = hashlib.sha256()
    for row in rows:
        tokens = [repr(float(x)) for x in row]
        for command in commands:
            out, _, code = run([command[0], *tokens, *command[1:]])
            h.update(f"{code}\n{out}\0".encode("utf-8"))
    return h.hexdigest()


def stream_digest(workload: str, seed: int, count: int, commands) -> str:
    """rows_digest of the first `count` tetrahedra of the benchmark's input
    stream."""
    angles, _ = TetStream(seed, STREAM[workload], RMAX[workload]).take(count)
    return rows_digest(angles, commands)


def formula_digest(seed: int) -> str:
    return stream_digest("formula", seed, FORMULA_INPUTS, ANGLE_COMMANDS)


def oracle_digest(seed: int) -> str:
    return stream_digest("oracle", seed, ORACLE_INPUTS, [("oracle",)])


def digests():
    """(name, sha256) pairs, in the order they are printed."""
    out, _, _ = run(["suite", "--count", "100", "--seed", "7"])
    yield "suite_seed7", hashlib.sha256(out.encode("utf-8")).hexdigest()
    out, err, code = run(["suite", "--seed", "2"])
    yield "suite_seed2", sha256(out, err, str(code))
    for seed in FORMULA_SEEDS:
        yield f"formula_seed{seed}", formula_digest(seed)
    yield "oracle_seed1", oracle_digest(1)


def moved(found: dict[str, str], pinned: dict[str, str] = PINNED) -> list[str]:
    """Names of the pinned digests that `found` lacks or gives another value."""
    return [name for name, digest in pinned.items() if found.get(name) != digest]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Digest the CLI's user-visible output.")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any digest differs from its pinned value")
    args = parser.parse_args(argv)
    found = {}
    for name, digest in digests():
        print(f"{name} {digest}", flush=True)
        found[name] = digest
    if not args.check:
        return 0
    changed = moved(found)
    for name in changed:
        print(f"moved: {name} (pinned {PINNED[name]})")
    if not changed:
        print(f"all {len(PINNED)} digests match their pinned values")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
