"""`python -m reggescissors <args>` with the machine speed sampled inside it.

    python3 perfbench/suite_child.py <samples.json> suite --count 100 --seed 7

Runs the package's `__main__` exactly as `-m` would, under a
`machine.Ticker`, writes the ticker's samples to <samples.json>, also when
the package raises, and exits with the package's exit code.  Its stdout is
the package's.
"""

from __future__ import annotations

import json
import runpy
import sys
from pathlib import Path

import machine


def main() -> int:
    samples_path = Path(sys.argv[1])
    sys.argv = ["reggescissors", *sys.argv[2:]]
    code = 0
    with machine.Ticker() as ticker:
        try:
            runpy.run_module("reggescissors", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
        finally:  # an uncaught error still leaves the samples for the worker
            samples_path.write_text(json.dumps(ticker.samples))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
