import numpy as np
import pytest

from reggescissors.exceptions import GeometryDomainError
from reggescissors import sampling
from reggescissors.sampling import _accept, sample_finite
from reggescissors.tetra import TetAngles, TetraKind, classify


def test_samples_are_finite_and_seeded():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    batch1, stats = sample_finite(rng1, 10)
    batch2, _ = sample_finite(rng2, 10)
    assert all(classify(t).kind is TetraKind.FINITE for t in batch1)
    assert [t.as_tuple() for t in batch1] == [t.as_tuple() for t in batch2]
    assert 0 < stats.requested <= stats.drawn


def test_image_requirement():
    rng = np.random.default_rng(3)
    batch, _ = sample_finite(rng, 5, require_finite_images=("a", "b", "c"))
    from reggescissors.scissors import regge

    for t in batch:
        for which in ("a", "b", "c"):
            assert classify(regge(t, which)).kind is TetraKind.FINITE


def _single_draw(rng, require_finite_images=(), max_tries=100000):
    batch, stats = sample_finite(rng, 1, require_finite_images, max_tries)
    assert len(batch) == 1 and stats.requested == 1
    return batch[0]


def test_single_draw():
    rng = np.random.default_rng(0)
    t = _single_draw(rng)
    assert classify(t).kind is TetraKind.FINITE


def _loop_draw(rng, require_finite_images=(), max_tries=100000):
    """One finite draw as its own rejection loop: the reference for sample_finite(rng, 1, ...)."""
    center, half_width = sampling.BOX_CENTER, sampling.BOX_HALF_WIDTH
    lo, hi = center - half_width, center + half_width
    for _ in range(max_tries):
        t = TetAngles.of(rng.uniform(lo, hi, size=6))
        if _accept(t, require_finite_images):
            return t
    raise GeometryDomainError("rejection sampling failed; box too wide?")


@pytest.mark.parametrize("images", [(), ("a", "b", "c")])
def test_single_draw_matches_loop(images):
    for seed in range(5):
        rng1, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            drawn = _single_draw(rng1, require_finite_images=images)
            assert drawn == _loop_draw(rng2, require_finite_images=images)
        assert rng1.bit_generator.state == rng2.bit_generator.state


@pytest.fixture
def hopeless_box(monkeypatch):
    """A box far below the Finite window, so that every draw is rejected."""
    monkeypatch.setattr(sampling, "BOX_CENTER", 0.3)
    monkeypatch.setattr(sampling, "BOX_HALF_WIDTH", 0.05)


@pytest.mark.parametrize("max_tries", [0, 50])
def test_single_draw_same_error(max_tries, hopeless_box):
    rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
    messages = []
    for fn, rng in ((_single_draw, rng1), (_loop_draw, rng2)):
        with pytest.raises(GeometryDomainError) as exc:
            fn(rng, max_tries=max_tries)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert rng1.bit_generator.state == rng2.bit_generator.state


def test_hopeless_box_raises(hopeless_box):
    rng = np.random.default_rng(0)
    with pytest.raises(GeometryDomainError):
        sample_finite(rng, 1, max_tries=50)
