#!/usr/bin/env python3
"""Walk through the scissors-congruence verification for one tetrahedron.

Prints the 16-piece decomposition of 2T, applies the BA/DC exchange, and
shows it matching the decomposition of the aligned Regge-b image slot by
slot, as the `b` check (`verify --which b`) compares them: the relabeling
and the piece order are the check's own, and the worst gap is its slot gap.
"""

import argparse

from reggescissors import TetAngles, classify, decompose, lobachevsky, regge, tet_volume, verify_scissors
from reggescissors.exceptions import GeometryDomainError
from reggescissors.scissors import _CHECKS, PIECE_LABELS
from reggescissors.tetra import TetraKind, relabel, require_kind


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "angles", nargs="*", type=float,
        default=[1.15, 1.2, 1.1, 1.22, 1.18, 1.25],
        help="six dihedral angles A B C A' B' C' in radians",
    )
    args = parser.parse_args()
    try:
        t = TetAngles.of(args.angles)
        require_kind(t, TetraKind.FINITE, TetraKind.IDEAL)  # what decompose takes
    except GeometryDomainError as exc:
        parser.error(str(exc))
    print(f"T = {t.as_tuple()}")
    print(f"classification: {classify(t).kind.value}")
    v = tet_volume(t)
    print(f"V(T) = {v:.12f}\n")

    d = decompose(t)
    print(f"{'side':4s} {'slot':4s} {'raw':>12s} {'canonical':>12s} {'volume':>14s}")
    for (side, slot), raw, c in zip(PIECE_LABELS, d.raw_angles, d.canonical_angles()):
        print(f"{side:4s} {slot:4s} {raw:12.6f} {c:12.6f} {lobachevsky(c):14.10f}")
    print(f"sum = {d.total_volume():.12f}  (2V = {2 * v:.12f})\n")

    image = regge(t, "b")
    print(f"R_b(T) = {tuple(round(x, 6) for x in image.as_tuple())}")
    print(f"V(R_b(T)) = {tet_volume(image):.12f}")

    # the b check keeps the source as it is and relabels the image
    _, of_image, match = _CHECKS["b"]
    source = d.canonical_angles()
    aligned = decompose(relabel(image, of_image)).canonical_angles()
    print("\nslot-by-slot match after the BA/DC exchange (aligned image):")
    for (side, slot), j, c_a in zip(PIECE_LABELS, match, aligned):
        c_m = source[j]
        print(f"  {side:3s}{slot:3s}: {c_m:+.9f} vs {c_a:+.9f}   gap {abs(c_m - c_a):.2e}")
    print(f"\nworst slot gap: {verify_scissors(t, 'b').slot_gap!r}")

if __name__ == "__main__":
    main()
