"""The sampler's text: ``random_dyck_text`` draws the path of
``random_dyck_path``, as text, with the same draws from the generator."""

import random

import pytest

from catalan_lab import (
    D,
    U,
    Path,
    is_dyck,
    random_dyck_path,
    random_dyck_text,
    raney_shift,
)

SIZES = [*range(71), 127, 128, 255, 256, 1000, 100000]


def shuffle_text(n, rng):
    """The sampled text written with random.Random.shuffle."""
    arrangement = [D] * n + [U] * (n + 1)
    rng.shuffle(arrangement)
    r = raney_shift(arrangement)
    return str(Path(tuple(arrangement[r:] + arrangement[: r - 1])))


@pytest.mark.parametrize("seed", [0, 1, 2024, 2**32 - 1])
def test_text_is_the_sampled_path(seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for n in SIZES:
        text, p = random_dyck_text(n, rng), random_dyck_path(n, ref)
        assert text == str(p), n
        assert rng.getstate() == ref.getstate(), n
        # the path's steps, not only its kept text, are the drawn ones
        assert Path.from_string(text) == p, n


@pytest.mark.parametrize("seed", [0, 1, 2024, 2**32 - 1])
def test_same_text_as_shuffle(seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for n in SIZES:
        text = random_dyck_text(n, rng)
        assert text == shuffle_text(n, ref), n
        assert rng.getstate() == ref.getstate(), n
        assert len(text) == 2 * n and is_dyck(Path.from_string(text)), n


def test_n0_is_empty():
    rng = random.Random(1)
    for _ in range(10):
        assert random_dyck_text(0, rng) == ""


def test_negative_rejected_as_by_the_path_sampler():
    with pytest.raises(ValueError, match="^size must be nonnegative, got -1$"):
        random_dyck_text(-1)
    with pytest.raises(ValueError, match="^size must be nonnegative, got -1$"):
        random_dyck_path(-1)


def test_default_generator():
    text = random_dyck_text(50)
    assert len(text) == 100 and is_dyck(Path.from_string(text))
