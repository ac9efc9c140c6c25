"""Command-line interface: volumes, decompositions, transforms, verification.

JSON goes to stdout (the default; --table renders a human layout instead),
diagnostics to stderr.  Exit codes: 0 success, 1 input error, 2 verification
failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .exceptions import GeometryDomainError
from . import klein
from .lobachevsky import lobachevsky
from .octahedron import solve_holonomy, tet_volume
from .scissors import PIECE_LABELS, decompose, regge, regge_orbit, s_value, verify_scissors
from .suite import SuiteConfig, run_suite
from .tetra import _ANGLE_ORDER, TetAngles, TetraKind, classify, edge_lengths, require_kind

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3


def _emit(payload: dict, args) -> int:
    """Print the report, with null for each non-finite float (JSON has none),
    and return EXIT_VERIFY if it says "passed": false, else EXIT_OK.  --out is
    written first, so that a path that cannot be written is an input error
    before anything is printed."""
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise GeometryDomainError(f"--out: {exc}") from None
    if getattr(args, "table", False):
        _print_table(payload)
    else:
        print(text)
    return EXIT_VERIFY if payload.get("passed") is False else EXIT_OK


def _print_table(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_table(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _print_table(item, indent + 1)
                print()
        else:
            print(f"{pad}{key}: {value}")


def _parse_angles(raw: list[str], degrees: bool) -> TetAngles:
    vals = []
    for label, token in zip(_ANGLE_ORDER, raw):
        name = label.replace("p", "'")  # "Ap" is printed A'
        try:
            x = float(token)
        except ValueError:
            raise GeometryDomainError(f"angle {name}: could not parse {token!r}") from None
        if degrees:
            x = math.radians(x)
        if not 0.0 < x < math.pi:
            raise GeometryDomainError(
                f"angle {name}: {x:.6f} rad is outside (0, pi)"
            )
        vals.append(x)
    return TetAngles(*vals)


def _angles_payload(t: TetAngles) -> dict:
    return dict(zip(_ANGLE_ORDER, t.as_tuple()))


def _run_angle_command(args) -> int:
    """Parse the six angles, build the command's payload from them and emit it."""
    t = _parse_angles(args.angles, args.degrees)
    return _emit({"command": args.command, **args.payload(t, args)}, args)


def cmd_volume(t: TetAngles, args) -> dict:
    kind = require_kind(t, TetraKind.FINITE, TetraKind.IDEAL).kind
    roots = solve_holonomy(t)
    return {
        "angles": _angles_payload(t),
        "classification": kind.value,
        "volume": roots.volume_minus,
        "holonomy": {
            "Z_minus": roots.Z_minus,
            "Z_plus": roots.Z_plus,
            "unit_defect": roots.unit_defect,
            "discriminant": [roots.discriminant.real, roots.discriminant.imag],
            "volume_plus_root": roots.volume_plus,
        },
    }


def cmd_decompose(t: TetAngles, args) -> dict:
    d = decompose(t)
    return {
        "angles": _angles_payload(t),
        "firepole": "AA'",
        "pieces": [
            {
                "side": side,
                "slot": slot,
                "raw_angle": raw,
                "canonical_angle": c,
                "signed_volume": lobachevsky(c),
            }
            for (side, slot), raw, c in zip(PIECE_LABELS, d.raw_angles, d.canonical_angles())
        ],
        "total_volume": d.total_volume(),
        "twice_tet_volume": 2 * tet_volume(t),
    }


def cmd_regge(t: TetAngles, args) -> dict:
    image = regge(t, args.which)
    return {
        "which": args.which,
        "s": s_value(t, args.which),
        "angles": _angles_payload(t),
        "transformed": _angles_payload(image),
        "classification": classify(t).kind.value,
        "image_classification": classify(image).kind.value,
    }


def cmd_orbit(t: TetAngles, args) -> dict:
    require_kind(t, TetraKind.FINITE)
    orbit = regge_orbit(t)
    return {
        "size": len(orbit.members),
        "members": [
            {"angles": _angles_payload(m), "volume": v}
            for m, v in zip(orbit.members, orbit.volumes)
        ],
    }


def cmd_verify(t: TetAngles, args) -> dict:
    require_kind(t, TetraKind.FINITE)
    return verify_scissors(t, args.which, args.tol).to_payload()


def cmd_oracle(t: TetAngles, args) -> dict:
    kt = klein.klein_vertices(t)
    v_quad = klein.volume_numeric(kt, tol=args.tol)
    v_formula = tet_volume(t)
    residuals = klein.schlafli_residual(t)
    halves = np.array(edge_lengths(t)) / 2
    return {
        "angles": _angles_payload(t),
        "volume_formula": v_formula,
        "volume_quadrature": v_quad,
        "volume_gap": abs(v_formula - v_quad),
        "quadrature_tolerance": args.tol,
        "klein_vertices": [list(v) for v in kt.vertices],
        "schlafli_residuals": list(residuals),
        "schlafli_max_relative": float(np.max(residuals / halves)),
        "schlafli_step": klein.SCHLAFLI_STEP,
    }


def cmd_suite(args) -> int:
    config = SuiteConfig(
        seed=args.seed,
        count=args.count,
        oracle_count=max(1, args.count // 4),
    )
    report = run_suite(config)
    code = _emit(report.to_payload(), args)
    for result in report.results:
        status = "PASS" if result.passed else "FAIL"
        print(f"criterion {result.cid} [{status}] {result.name}", file=sys.stderr)
    return code


def _add_angle_command(sub, name, fn, help_text):
    p = sub.add_parser(name, help=help_text)
    # a tuple metavar on a positional crashes argparse's --help and its
    # missing-argument error
    p.add_argument("angles", nargs=6, metavar="ANGLE", help="the dihedral angles A B C A' B' C'")
    p.add_argument("--degrees", action="store_true", help="interpret angles in degrees")
    p.add_argument("--table", action="store_true", help="human-readable output instead of JSON")
    p.add_argument("--out", metavar="FILE", help="also write the JSON report to FILE")
    p.set_defaults(fn=_run_angle_command, payload=fn)
    return p


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit 1, JSON on stdout)
    instead of argparse's exit 2, the verification-failure code."""

    def error(self, message):
        raise GeometryDomainError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reggescissors",
        description="Hyperbolic tetrahedron volumes, scissors decompositions, "
                    "and Regge-congruence verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_angle_command(sub, "volume", cmd_volume,
                       "volume, classification and holonomy diagnostics")
    _add_angle_command(sub, "decompose", cmd_decompose,
                       "the sixteen-piece decomposition of 2T")
    p = _add_angle_command(sub, "regge", cmd_regge, "apply one Regge transform")
    p.add_argument("--which", choices=("a", "b", "c"), required=True)
    _add_angle_command(sub, "orbit", cmd_orbit,
                       "orbit under the Regge transforms, deduplicated (at most six members)")
    p = _add_angle_command(sub, "verify", cmd_verify,
                           "verify the scissors congruence for one transform")
    p.add_argument("--which", choices=("a", "b", "c"), required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p = _add_angle_command(sub, "oracle", cmd_oracle,
                           "Klein-model quadrature volume and Schlafli residuals")
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("suite", help="run the acceptance battery")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except GeometryDomainError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
