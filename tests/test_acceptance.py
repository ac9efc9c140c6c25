"""The acceptance battery, run once at full scale; one test per criterion.

Each test prints its own pass/fail line so the criterion outcomes are
visible in the pytest output (-s or on failure).
"""

import weakref
from collections import Counter

import pytest

from reggescissors import suite, tetra
from reggescissors.exceptions import GeometryDomainError
from reggescissors.sampling import sample_finite
from reggescissors.scissors import REGGE_B_IMAGE_RELABEL, regge
from reggescissors.suite import SuiteConfig, criterion_3, criterion_4, criterion_5, criterion_6, criterion_7, run_suite


@pytest.fixture(scope="module")
def report():
    return run_suite(SuiteConfig(seed=7, count=100, oracle_count=25, grid_points=1000))


def _result(report, cid):
    for r in report.results:
        if r.cid == cid:
            return r
    raise LookupError(cid)


def _show(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"\nACCEPTANCE {result.cid} [{status}] {result.name}")
    for check in result.checks:
        mark = "ok " if check.passed else "BAD"
        print(f"    {mark} {check.metric}: {check.value:.3e} (tol {check.tolerance:.3e})")


@pytest.mark.parametrize(
    "cid,name",
    [
        (1, "Lobachevsky series/quadrature cross-check"),
        (2, "prism volume consistency"),
        (3, "octahedron angle system"),
        (4, "volume formula coherence"),
        (5, "coordinate oracle agreement"),
        (6, "Regge transform invariance"),
        (7, "scissors congruence of 2T and 2R_b(T)"),
        (8, "known-value spot checks"),
        (9, "deterministic reports"),
    ],
)
def test_criterion(report, cid, name):
    result = _result(report, cid)
    assert result.name == name
    _show(result)
    for check in result.checks:
        assert check.passed, f"criterion {cid}: {check.metric} = {check.value:.3e} > {check.tolerance:.3e}"
    assert result.passed


def test_full_report_passes(report):
    assert report.passed


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("seed", -1, "seed must be at least 0, got -1"),
        ("count", 0, "count must be at least 1, got 0"),
        ("oracle_count", 0, "oracle_count must be at least 1, got 0"),
        ("grid_points", 1, "grid_points must be at least 2, got 1"),
    ],
)
def test_config_rejects_empty_batches(field, value, message):
    # zero samples would pass every criterion vacuously
    with pytest.raises(GeometryDomainError) as exc:
        SuiteConfig(**{field: value})
    assert str(exc.value) == message


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_oracle_criterion_passes_on_near_regular_seeds(seed):
    # with vertex 0 at the origin the far vertices sat at Klein radius 0.9999
    # and the quadrature budget ran out on these benign inputs
    assert criterion_5(SuiteConfig(seed=seed)).passed


@pytest.mark.parametrize("criterion,check", [(criterion_3, "solve_holonomy"), (criterion_4, "tet_volume"),
                                             (criterion_5, "tet_volume"), (criterion_6, "tet_volume"),
                                             (criterion_7, "verify_scissors")],
                         ids=[f"criterion_{k}" for k in range(3, 8)])
def test_each_criterion_drops_its_sources_after_checking_them(criterion, check, monkeypatch):
    # a source keeps the images regge builds for it, so a criterion that kept
    # its checked sources would keep all their images until it ends
    draws, checked, alive = [], set(), []
    sample, run = suite.sample_finite, getattr(suite, check)

    def recorded(rng, count):
        batch, stats = sample(rng, count)
        draws.extend(map(weakref.ref, batch))
        return batch, stats

    def checking(t, *args):
        k = next((k for k, ref in enumerate(draws) if ref() is t), None)
        if k is not None:
            alive.append(sum(draws[j]() is not None for j in checked - {k}))
            checked.add(k)
        return run(t, *args)

    monkeypatch.setattr(suite, "sample_finite", recorded)
    monkeypatch.setattr(suite, check, checking)
    config = SuiteConfig(count=5, oracle_count=3)
    criterion(config)
    assert len(checked) == len(draws) == (config.oracle_count if criterion is criterion_5 else config.count)
    assert max(alive) <= 1, alive


@pytest.mark.parametrize("criterion,stream,moves", [(criterion_6, 6, "abc"), (criterion_7, 7, "b")],
                         ids=["criterion_6", "criterion_7"])
def test_each_regge_image_is_classified_once(criterion, stream, moves, monkeypatch):
    # the check that uses an image classifies it; the sampler classifies only
    # its draws.  In criterion 7, each R_b image's aligned relabeling takes
    # its class from the image (tetra.relabel) and is not classified.
    config = SuiteConfig(count=5)
    batch, stats = sample_finite(suite._rng(config, stream), config.count)
    images = [regge(t, which) for t in batch for which in moves]
    expected = [t.as_tuple() for t in images]
    calls = []
    compute = tetra._classify
    monkeypatch.setattr(tetra, "_classify", lambda t: calls.append(t.as_tuple()) or compute(t))
    criterion(config)
    counts = Counter(calls)
    assert [counts[x] for x in expected] == [1] * len(expected)
    if criterion is criterion_7:
        aligned = [tetra.relabel(t, REGGE_B_IMAGE_RELABEL).as_tuple() for t in images]
        assert [counts[x] for x in aligned] == [0] * len(aligned)
    assert len(calls) == stats.drawn + len(expected)
