import hashlib

import numpy as np
import pytest

from reggescissors import sampling, suite
from reggescissors.exceptions import GeometryDomainError
from reggescissors.sampling import SeededUniform, sample_finite
from reggescissors.scissors import regge
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
    # the sampler keeps Finite draws and no more: every Regge image of them is
    # Finite too, on the suite's streams 3-7 well past the draws it takes
    config = suite.SuiteConfig()
    draws = 0
    for stream in range(3, 8):
        batch, stats = sample_finite(suite._rng(config, stream), 400)
        draws += stats.drawn
        for t in batch:
            for which in ("a", "b", "c"):
                assert classify(regge(t, which)).kind is TetraKind.FINITE, (stream, t, which)
    assert draws >= 2000


def test_finite_batch_unchanged(finite_batch):
    # the 20 draws the tests share are those the sampler made when it still
    # rejected draws with a non-Finite Regge image
    digest = hashlib.sha256(" ".join(x.hex() for t in finite_batch for x in t.as_tuple()).encode())
    assert digest.hexdigest() == "40785cee930d5ad4ce949d2afd43ade5fa460f601251fd731fed9ffb0bef973f"


def _single_draw(rng):
    batch, stats = sample_finite(rng, 1)
    assert len(batch) == 1 and stats.requested == 1
    return batch[0]


def test_single_draw():
    rng = np.random.default_rng(0)
    t = _single_draw(rng)
    assert classify(t).kind is TetraKind.FINITE


def _loop_draw(rng):
    """One finite draw as its own rejection loop: the reference for sample_finite(rng, 1)."""
    center, half_width = sampling.BOX_CENTER, sampling.BOX_HALF_WIDTH
    lo, hi = center - half_width, center + half_width
    for _ in range(sampling.MAX_TRIES):
        t = TetAngles.of(rng.uniform(lo, hi, size=6))
        if classify(t).kind is TetraKind.FINITE:
            return t
    raise GeometryDomainError("rejection sampling failed; box too wide?")


def test_single_draw_matches_loop():
    for seed in range(5):
        rng1, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert _single_draw(rng1) == _loop_draw(rng2)
        assert rng1.bit_generator.state == rng2.bit_generator.state


@pytest.fixture
def hopeless_box(monkeypatch):
    """A box far below the Finite window, so that every draw is rejected."""
    monkeypatch.setattr(sampling, "BOX_CENTER", 0.3)
    monkeypatch.setattr(sampling, "BOX_HALF_WIDTH", 0.05)


@pytest.mark.parametrize("max_tries", [0, 50])
def test_single_draw_same_error(max_tries, hopeless_box, monkeypatch):
    monkeypatch.setattr(sampling, "MAX_TRIES", max_tries)
    rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
    messages = []
    for fn, rng in ((_single_draw, rng1), (_loop_draw, rng2)):
        with pytest.raises(GeometryDomainError) as exc:
            fn(rng)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert rng1.bit_generator.state == rng2.bit_generator.state


def test_hopeless_box_raises(hopeless_box, monkeypatch):
    monkeypatch.setattr(sampling, "MAX_TRIES", 50)
    rng = np.random.default_rng(0)
    with pytest.raises(GeometryDomainError):
        sample_finite(rng, 1)


# seeds of one, two and three 32-bit words (the last a 67-bit integer)
_ENTROPY_SEEDS = [0, 7, 2**31, 2**32, 2**40 + 3, 2**66 + 0x1234_5678_9ABC_DEF1]


@pytest.mark.kernel_independent
@pytest.mark.parametrize("size", [3, 6])
def test_seeded_uniform_is_numpys_default_rng(size):
    for seed in _ENTROPY_SEEDS:
        for stream in range(12):
            ours, numpys = SeededUniform([seed, stream]), np.random.default_rng([seed, stream])
            for _ in range(50):
                got = ours.uniform(0.05, 1.45, size)
                expected = numpys.uniform(0.05, 1.45, size=size).tolist()
                assert [x.hex() for x in got] == [x.hex() for x in expected], (seed, stream)


@pytest.mark.kernel_independent
def test_seeded_uniform_takes_an_integer_entropy():
    # 2^130 + 5 has five words, more than the 4-word pool of the seeding mix
    for seed in [*_ENTROPY_SEEDS, 2**130 + 5]:
        got = SeededUniform(seed).uniform(-2.0, 3.0, 40)
        expected = np.random.default_rng(seed).uniform(-2.0, 3.0, size=40).tolist()
        assert [x.hex() for x in got] == [x.hex() for x in expected], seed


@pytest.mark.parametrize("entropy", [-1, [7, -1], 1.5, [7, 2.0], "7", [7, None]],
                         ids=["negative", "negative_stream", "float", "float_stream", "str", "none_stream"])
def test_seeded_uniform_rejects_bad_entropy(entropy):
    # numpy rejects each of these too: negatives with ValueError, non-integers with TypeError
    with pytest.raises(ValueError, match="entropy must be non-negative integers"):
        SeededUniform(entropy)
    with pytest.raises((ValueError, TypeError)):
        np.random.default_rng(entropy)


@pytest.mark.kernel_independent
def test_sample_finite_same_batch_from_either_generator():
    for stream in range(2, 8):
        ours, ours_stats = sample_finite(SeededUniform([7, stream]), 30)
        numpys, numpy_stats = sample_finite(np.random.default_rng([7, stream]), 30)
        assert ours_stats == numpy_stats
        assert [x.hex() for t in ours for x in t.as_tuple()] == [x.hex() for t in numpys for x in t.as_tuple()]
