import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reggescissors import scissors, tetra
from reggescissors.exceptions import DegenerateSystemError, GeometryDomainError
from reggescissors.klein import KleinTetra, dihedral_angles, klein_vertices
from reggescissors.lobachevsky import lobachevsky
from reggescissors.octahedron import DUAL_SIDE, O_SIDE, SLOT_ORDER, solve_holonomy, tet_volume
from reggescissors.scissors import (
    _REGGE_B_EXCHANGE,
    PIECE_LABELS,
    REGGE_B_IMAGE_RELABEL,
    Decomposition,
    canonical_angle,
    decompose,
    permute_for_regge_b,
    regge,
    regge_orbit,
    s_value,
    verify_scissors,
)
from reggescissors.tetra import (
    SWAP_AB_PAIRS,
    SWAP_BC_PAIRS,
    TetAngles,
    TetraKind,
    classify,
    relabel,
)

from oracles import tetra_symmetries

PI = math.pi

angles6 = st.tuples(*[st.floats(0.3, 2.8)] * 6)


class TestReggeMap:
    def test_fixed_point_of_a(self):
        t = TetAngles(1.21, 1.1, 1.1, 1.13, 1.1, 1.1)  # B = C = B' = C'
        assert regge(t, "a").as_tuple() == pytest.approx(t.as_tuple(), abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(angles6, st.sampled_from(["a", "b", "c"]))
    def test_involution(self, angles, which):
        t = TetAngles(*angles)
        back = regge(regge(t, which), which)
        assert back.as_tuple() == pytest.approx(t.as_tuple(), abs=1e-13)

    def test_conjugation_identities_exact(self, generic):
        via_ab = relabel(regge(relabel(generic, SWAP_AB_PAIRS), "b"), SWAP_AB_PAIRS)
        assert via_ab.as_tuple() == regge(generic, "a").as_tuple()
        via_bc = relabel(regge(relabel(generic, SWAP_BC_PAIRS), "b"), SWAP_BC_PAIRS)
        assert via_bc.as_tuple() == regge(generic, "c").as_tuple()

    def test_s_values(self, generic):
        t = generic
        assert s_value(t, "a") == (t.B + t.C + t.Bp + t.Cp) / 2
        assert s_value(t, "b") == (t.A + t.C + t.Ap + t.Cp) / 2
        assert s_value(t, "c") == (t.A + t.B + t.Ap + t.Bp) / 2
        with pytest.raises(GeometryDomainError):
            s_value(t, "d")

    def test_preserves_classification_empirically(self, finite_batch):
        # not a theorem we rely on; checked on the sampled population
        for t in finite_batch:
            for which in ("a", "b", "c"):
                assert classify(regge(t, which)).kind is TetraKind.FINITE


class TestCanonicalAngle:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-50, 50))
    def test_range_and_period(self, x):
        c = canonical_angle(x)
        assert -PI / 2 < c <= PI / 2
        # distance mod pi: float rounding may flip the fold exactly at the
        # +-pi/2 seam, where both representatives carry zero volume
        d = abs(canonical_angle(x + PI) - c)
        assert min(d, PI - d) < 1e-9

    def test_null_snap(self):
        assert canonical_angle(PI + 1e-14) == 0.0
        assert canonical_angle(-1e-13) == 0.0


class TestDecomposition:
    def test_piece_count_and_slots(self, generic):
        d = decompose(generic)
        assert len(d.raw_angles) == len(PIECE_LABELS) == 16
        assert PIECE_LABELS[:8] == tuple((O_SIDE, slot) for slot in SLOT_ORDER)
        assert PIECE_LABELS[8:] == tuple((DUAL_SIDE, slot) for slot in SLOT_ORDER)
        # the ring pieces (the e, f, g, h tetrahedra) cancel between the two
        # octahedra and never appear as decomposition slots
        assert set(SLOT_ORDER) == {"AB", "BA", "BC", "CB", "CD", "DC", "DA", "AD"}

    def test_sums_to_twice_volume(self, finite_batch):
        for t in finite_batch:
            d = decompose(t)
            assert d.total_volume() == pytest.approx(2 * tet_volume(t), abs=1e-10)

    def test_signed_volume_consistency(self, finite_batch):
        # each piece's canonical angle is its raw angle mod pi, and its
        # signed volume lob(canonical) adds into total_volume in piece order
        for t in finite_batch:
            d = decompose(t)
            c = d.canonical_angles()
            assert all(-PI / 2 < x <= PI / 2 for x in c)
            assert max(abs(math.sin(raw - x)) for raw, x in zip(d.raw_angles, c)) < 1e-12
            assert d.total_volume() == float(sum(lobachevsky(x) for x in c))

    def test_equiangular_slot_coincidences(self, equiangular):
        # equal opposite pairs force the BA/DC, CB/AD, BC/DA piece pairs equal
        c = dict(zip(PIECE_LABELS, decompose(equiangular).canonical_angles()))
        for side in (O_SIDE, DUAL_SIDE):
            for slot, partner in (("BA", "DC"), ("CB", "AD"), ("BC", "DA")):
                assert c[side, slot] == pytest.approx(c[side, partner], abs=1e-12)

    def test_hyperideal_rejected(self):
        with pytest.raises(GeometryDomainError):
            decompose(TetAngles(*(1.0,) * 6))


class TestFiniteRegionEdges:
    """The two ends of the Finite region: the regular ideal tetrahedron, and
    the collapse V -> 0 toward the flat regular Euclidean tetrahedron."""

    def test_ideal_limit(self):
        t = TetAngles(*(PI / 3,) * 6)
        assert classify(t).kind is TetraKind.IDEAL
        v = tet_volume(t)
        assert v == pytest.approx(1.0149416064096539, abs=1e-12)  # 3 lob(pi/3)
        assert decompose(t).total_volume() == pytest.approx(2 * v, abs=1e-12)
        report = verify_scissors(t, "b")
        assert not report.passed
        assert report.failure == "source tetrahedron is Ideal, not Finite"
        with pytest.raises(GeometryDomainError):
            klein_vertices(t)

    def test_roots_keep_their_labels_as_volume_vanishes(self):
        # equiangular tetrahedra at theta = arccos(1/3) - d: Finite for d > 0,
        # the flat Euclidean regular tetrahedron at d = 0
        vols = []
        for k in range(2, 9):
            d = 10.0**-k
            t = TetAngles(*(math.acos(1 / 3) - d,) * 6)
            assert classify(t).kind is TetraKind.FINITE
            roots = solve_holonomy(t)
            assert roots.volume_minus > 0
            assert abs(roots.volume_minus + roots.volume_plus) <= 1e-12
            # edge lengths shrink like sqrt(d), so V like d**1.5
            assert 8.0 < roots.volume_minus / d**1.5 < 8.5
            vols.append(roots.volume_minus)
        assert all(v2 < v1 for v1, v2 in zip(vols, vols[1:]))


class TestEdgeLengthRule:
    def test_lengths_move_like_angles(self, stream_angles):
        # Schlafli and V(R t) = V(t) force l(R t) = M l(t) with the same
        # s - x rule on the moved edges, so the Dehn invariant is kept too
        pairs = 0
        for t in map(TetAngles.of, stream_angles):
            if classify(t).kind is not TetraKind.FINITE:
                continue
            lengths = tetra.edge_lengths(t)
            for which in scissors._MOVED:
                image = regge(t, which)
                if classify(image).kind is not TetraKind.FINITE:
                    continue
                _, expected = scissors._move(lengths, which)
                assert tetra.edge_lengths(image) == pytest.approx(expected, rel=0, abs=1e-9)
                pairs += 1
        assert pairs > 3000


class TestPermutation:
    def test_multiset_preserved_exactly(self, generic):
        d = decompose(generic)
        moved = permute_for_regge_b(d)
        assert sorted(moved.canonical_angles()) == sorted(d.canonical_angles())
        assert moved.total_volume() == d.total_volume()

    def test_swaps_both_sides(self, generic):
        d = decompose(generic)
        c = dict(zip(PIECE_LABELS, d.canonical_angles()))
        c_moved = dict(zip(PIECE_LABELS, permute_for_regge_b(d).canonical_angles()))
        for side in (O_SIDE, DUAL_SIDE):
            assert c_moved[side, "BA"] == c[side, "DC"]
            assert c_moved[side, "DC"] == c[side, "BA"]
            assert c_moved[side, "AB"] == c[side, "AB"]

    def test_aligned_image_matches_slot_for_slot(self, finite_batch):
        # the central mechanism: conjugating the b-image by the crossed pair
        # swap reproduces the source bars with BA and DC traded, so the moved
        # decomposition matches the image decomposition slot by slot
        for t in finite_batch[:8]:
            moved = permute_for_regge_b(decompose(t))
            image = relabel(regge(t, "b"), REGGE_B_IMAGE_RELABEL)
            d2 = decompose(image)
            gap = max(abs(a - b) for a, b in zip(moved.canonical_angles(), d2.canonical_angles()))
            assert gap < 1e-12


class TestVerify:
    @pytest.mark.parametrize("which", ["a", "b", "c"])
    def test_random_finite_passes(self, finite_batch, which):
        for t in finite_batch[:6]:
            report = verify_scissors(t, which)
            assert report.passed, report
            assert report.volume_gap < 1e-9
            assert report.slot_gap < 1e-9
            assert report.failure is None

    def test_fixed_point_zero_distances(self):
        t = TetAngles(1.21, 1.1, 1.1, 1.13, 1.1, 1.1)
        report = verify_scissors(t, "a")
        assert report.passed
        assert report.volume_gap == 0.0
        assert report.transformed.as_tuple() == pytest.approx(t.as_tuple(), abs=1e-15)

    def test_structured_failure_for_hyperideal_source(self):
        # angles valid individually, but the source itself is not Finite
        t = TetAngles(*(1.0,) * 6)
        report = verify_scissors(t, "b")
        assert report.passed is False
        assert report.failure == "source tetrahedron is Hyperideal, not Finite"

    def test_structured_failure_for_non_finite_image(self, stream_angles):
        t = next(t for t in map(TetAngles.of, stream_angles)
                 if classify(t).kind is TetraKind.FINITE and classify(regge(t, "b")).kind is not TetraKind.FINITE)
        report = verify_scissors(t, "b")
        assert report.passed is False
        assert report.failure == f"transform image is {classify(regge(t, 'b')).kind.value}, not Finite"

    def test_structured_failure_for_degenerate_system(self, generic, monkeypatch):
        def degenerate(t):
            raise DegenerateSystemError("no solve")

        monkeypatch.setattr(scissors, "decompose", degenerate)
        report = verify_scissors(generic, "b")
        assert report.passed is False
        assert report.failure == "angle system degenerate: no solve"
        assert math.isnan(report.volume) and math.isnan(report.volume_image)
        assert math.isnan(report.volume_gap)
        assert report.slot_gap == math.inf
        assert report.conjugation is None

    @pytest.mark.parametrize("which", ["a", "b", "c"])
    def test_passes_on_the_slot_claim(self, stream_angles, which):
        # the pass rule is the paper's slot-by-slot claim; a sorted pairing
        # minimises the largest gap between two multisets, so the weaker
        # sorted-multiset gap never exceeds the slot gap
        conj = scissors.PAIR_CONJUGATION[which]
        computed = 0
        for t in map(TetAngles.of, stream_angles[::10]):
            report = verify_scissors(t, which)
            assert report.passed == (report.volume_gap <= report.tol and report.slot_gap <= report.tol)
            if report.failure is not None:
                continue
            computed += 1
            t0 = relabel(t, conj) if conj else t
            moved = permute_for_regge_b(decompose(t0)).canonical_angles()
            image = decompose(relabel(regge(t0, "b"), REGGE_B_IMAGE_RELABEL)).canonical_angles()
            assert max(abs(a - b) for a, b in zip(moved, image)) == report.slot_gap
            assert max(abs(a - b) for a, b in zip(sorted(moved), sorted(image))) <= report.slot_gap
        assert computed > 100

    def test_bad_which(self, generic):
        with pytest.raises(GeometryDomainError):
            verify_scissors(generic, "q")

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_rejects_tol_outside_positive_finite(self, generic, tol):
        with pytest.raises(GeometryDomainError, match="^tol must be positive and finite$"):
            verify_scissors(generic, "b", tol)

    def test_report_payload_round_trips(self, generic):
        payload = verify_scissors(generic, "b").to_payload()
        assert payload["passed"] is True
        assert payload["tol"] == 1e-9
        assert payload["slot_gap"] < 1e-9
        assert payload["failure"] is None
        assert not {"tol_volume", "tol_match", "multiset_gap", "slot_permutation"} & payload.keys()


class TestOrbit:
    def test_full_fixed_point_orbit_is_singleton(self):
        # A + A' = B + B' = C + C' makes every transform a relabel-fixed point
        t = TetAngles(1.1, 1.15, 1.2, 1.25, 1.2, 1.15)
        assert classify(t).kind is TetraKind.FINITE
        orbit = regge_orbit(t)
        assert len(orbit.members) == 1

    def test_generic_orbit_volumes_agree(self, generic):
        orbit = regge_orbit(generic)
        assert len(orbit.members) >= 2
        vols = [v for v in orbit.volumes if not math.isnan(v)]
        assert max(vols) - min(vols) < 1e-9

    def test_orbit_closure_under_generation(self, generic):
        orbit = regge_orbit(generic)
        orbit_b = regge_orbit(regge(generic, "b"))
        assert len(orbit.members) == len(orbit_b.members)


#: Row k reads the angles of the k-th relabeling (tetra._RELABEL_ROWS).
_RELABEL_INDEX = np.array(list(tetra._RELABEL_ROWS.values()), dtype=np.intp)


def _pairwise_orbit(t, max_size=64):
    """Reference closure: breadth-first under the three moves, each image
    compared with every member under all 24 relabelings at once. Stops with
    truncated=True when a new member would exceed max_size."""
    members, frontier = [t], [t]
    while frontier:
        nxt = []
        for cur in frontier:
            for which in ("a", "b", "c"):
                img = regge(cur, which)
                relabelings = np.array(img.as_tuple())[_RELABEL_INDEX]
                gaps = np.abs(relabelings[:, None, :] - np.array([m.as_tuple() for m in members]))
                if np.any(np.max(gaps, axis=2) < 1e-10):
                    continue
                if len(members) >= max_size:
                    return members, True
                members.append(img)
                nxt.append(img)
        frontier = nxt
    return members, False


def _orbit_volume(t):
    return tet_volume(t) if classify(t).kind in (TetraKind.FINITE, TetraKind.IDEAL) else math.nan


def _klein_uniform(rng, n):
    out = []
    while len(out) < n:
        direction = rng.normal(size=(4, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        verts = 0.95 * direction * rng.uniform(size=(4, 1)) ** (1 / 3)
        t = dihedral_angles(KleinTetra(verts))
        if classify(t).kind is TetraKind.FINITE:
            out.append(t)
    return out


class TestOrbitDedupMatchesPairwise:
    SYMMETRIC = (
        TetAngles(*(1.2,) * 6),  # regular
        TetAngles(*(1.1,) * 6),  # regular
        TetAngles(1.1, 1.15, 1.2, 1.25, 1.2, 1.15),  # A+A' = B+B' = C+C'
    )

    @pytest.fixture(scope="class")
    def cases(self, generic):
        # Klein-uniform Finite inputs, then uniform (0, pi)^6 draws: most of
        # these are Hyperideal, and the orbit takes any angles
        uniform = np.random.default_rng(78).uniform(0.0, PI, size=(200, 6))
        return [*_klein_uniform(np.random.default_rng(77), 50), *map(TetAngles.of, uniform),
                *self.SYMMETRIC, generic]

    @pytest.mark.parametrize("max_size", [64, 7, 6, 5, 2, 1])
    def test_members_and_flag_equal(self, max_size, cases):
        # regge_orbit lists its members in breadth-first order, so the capped
        # reference is a prefix of the orbit, cut exactly when the orbit is larger
        truncated_seen = False
        for t in cases:
            orbit = regge_orbit(t)
            members, truncated = _pairwise_orbit(t, max_size)
            assert [_hex(m.as_tuple()) for m in orbit.members[:max_size]] == [
                _hex(m.as_tuple()) for m in members]
            assert _hex(orbit.volumes[:max_size]) == _hex(map(_orbit_volume, members))
            assert truncated is (len(orbit.members) > max_size)
            truncated_seen |= truncated
        # the orbit has at most six members, so truncation stops at 6
        assert truncated_seen is (max_size < 6)

    def test_stream_orbits_have_at_most_six_members(self, stream_angles):
        # and the members and volume bits of the pairwise reference
        for angles in stream_angles:
            orbit = regge_orbit(TetAngles(*angles))
            assert len(orbit.members) <= 6
            members, _ = _pairwise_orbit(TetAngles(*angles))
            assert [_hex(m.as_tuple()) for m in orbit.members] == [_hex(m.as_tuple()) for m in members]
            assert _hex(orbit.volumes) == _hex(map(_orbit_volume, members))


#: The numpy dedup predicate regge_orbit used before the plain-float one.
def _numpy_relabels_onto(x, m):
    gaps = np.abs(np.array(x)[_RELABEL_INDEX][:, None, :] - np.array([m]))
    return bool(np.any(np.max(gaps, axis=2) < scissors.ORBIT_MATCH_TOL))


def _ulps_from(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


class TestOrbitPredicateAtItsTolerance:
    """The plain-float predicate looks only at the relabelings that bring an
    angle within the tolerance of the member's position 0, and only where
    the two minimum angles are that close, so its edge is swept at position
    0, at position 5 and at the smallest angle, against the numpy predicate."""

    @pytest.mark.parametrize("position", [0, 5, "smallest"])
    def test_agrees_with_numpy_across_the_edge(self, position, generic):
        outcomes = set()
        for m in (generic, *regge_orbit(generic).members[1:3]):
            base = m.as_tuple()
            i = base.index(min(base)) if position == "smallest" else position
            for sign in (1.0, -1.0):
                # the shifted angle sits k ulps from base + sign * 1e-10, so
                # its gap from base falls on both sides of ORBIT_MATCH_TOL
                edge = base[i] + sign * scissors.ORBIT_MATCH_TOL
                for k in range(-8, 9):
                    shifted = list(base)
                    shifted[i] = _ulps_from(edge, k)
                    for sigma in tetra_symmetries():
                        x = relabel(TetAngles(*shifted), sigma).as_tuple()
                        outcome = scissors._relabels_onto(x, base)
                        assert outcome is _numpy_relabels_onto(x, base), (m, i, sign, k, sigma)
                        outcomes.add(outcome)
        assert outcomes == {True, False}


# --- bit identity with the three-branch moves, the dict swap and the halving layer

def _s_value_branches(t, which):
    """s_value as three branches, before the moves became one index table."""
    if which == "a":
        return (t.B + t.C + t.Bp + t.Cp) / 2
    if which == "b":
        return (t.A + t.C + t.Ap + t.Cp) / 2
    return (t.A + t.B + t.Ap + t.Bp) / 2


def _regge_branches(t, which):
    s = _s_value_branches(t, which)
    if which == "a":
        return TetAngles(t.A, s - t.B, s - t.C, t.Ap, s - t.Bp, s - t.Cp)
    if which == "b":
        return TetAngles(s - t.A, t.B, s - t.C, s - t.Ap, t.Bp, s - t.Cp)
    return TetAngles(s - t.A, s - t.B, t.C, s - t.Ap, s - t.Bp, t.Cp)


def _permute_by_dict(d):
    """permute_for_regge_b as a keyed swap, before it became one index."""
    by_key = dict(zip(PIECE_LABELS, d.raw_angles))
    swapped = []
    for side, slot in PIECE_LABELS:
        if slot in ("BA", "DC"):
            swapped.append(by_key[(side, "DC" if slot == "BA" else "BA")])
        else:
            swapped.append(by_key[(side, slot)])
    return Decomposition(tuple(swapped))


def _halved_copy_volumes(d):
    """copy_volume(0) and copy_volume(1) of the removed 32-half layer: each
    piece split into halves 0 and 1 of volume lob(theta) / 2, in piece order."""
    halves = [(k, lobachevsky(canonical_angle(x)) / 2.0) for x in d.raw_angles for k in (0, 1)]
    return tuple(float(sum(v for half, v in halves if half == k)) for k in (0, 1))


def _hex(values):
    return [float.hex(float(x)) for x in values]


@pytest.mark.kernel_independent
@pytest.mark.parametrize("which", ["a", "c"])
def test_the_conjugated_image_is_r_b_of_the_conjugated_source(which, stream_angles):
    # verify_scissors checks the pair-swapped relabeling of regge(t, which):
    # bit for bit the R_b image of the relabeled source, with the class of
    # the image carried through relabel
    conj = scissors.PAIR_CONJUGATION[which]
    for x in stream_angles:
        t = TetAngles(*x)
        image = regge(t, which)
        classify(image)
        moved = relabel(image, conj)
        assert _hex(moved.as_tuple()) == _hex(regge(relabel(TetAngles(*x), conj), "b").as_tuple())
        assert classify(moved).kind is classify(TetAngles(*moved.as_tuple())).kind


class TestMovesKeepBits:
    def test_moves_match_branches(self, finite_batch):
        rng = np.random.default_rng(20261018)
        cases = [*finite_batch, *(TetAngles.of(row) for row in rng.uniform(0.0, PI, size=(10_000, 6)))]
        for t in cases:
            for which in ("a", "b", "c"):
                assert float.hex(s_value(t, which)) == float.hex(_s_value_branches(t, which))
                assert _hex(regge(t, which).as_tuple()) == _hex(_regge_branches(t, which).as_tuple())

    def test_exchange_index(self):
        assert tuple(_REGGE_B_EXCHANGE) == (0, 5, 2, 3, 4, 1, 6, 7, 8, 13, 10, 11, 12, 9, 14, 15)

    def test_permutation_matches_dict_swap(self, finite_batch):
        for t in [*finite_batch, *_klein_uniform(np.random.default_rng(77), 50)]:
            d = decompose(t)
            for before in (d, permute_for_regge_b(d)):
                new, old = permute_for_regge_b(before), _permute_by_dict(before)
                assert _hex(new.raw_angles) == _hex(old.raw_angles)
                assert _hex(new.canonical_angles()) == _hex(old.canonical_angles())
            # canonical_angle works element by element, so exchanging before
            # or after the reduction gives the same bits
            c = d.canonical_angles()
            assert _hex(c[k] for k in _REGGE_B_EXCHANGE) == _hex(_permute_by_dict(d).canonical_angles())

    def test_half_of_total_is_halved_copy(self, finite_batch):
        for t in [*finite_batch, *_klein_uniform(np.random.default_rng(77), 50)]:
            d = decompose(t)
            half = float.hex(0.5 * d.total_volume())
            assert _hex(_halved_copy_volumes(d)) == [half, half]
            moved = permute_for_regge_b(d)
            assert float.hex(0.5 * moved.total_volume()) == float.hex(_halved_copy_volumes(_permute_by_dict(d))[0])
