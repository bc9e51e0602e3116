"""PhiloxGenerator against numpy's Generator(Philox(seed)), bit for bit:
the key, uniform doubles, bounded integers with Lemire's rejection loop,
and the stream position every draw leaves behind."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodhg import data, make_splits, philox
from oodhg.model import init_params
from oodhg.philox import PhiloxGenerator, seed_key

# 2 ** 130 + 3 has five 32-bit entropy words, one past seed_key's pool
SEEDS = [0, 1, 5, 303, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64 + 5,
         2 ** 100, 2 ** 130 + 3]

# the weight shapes of one default init_params, in draw order: two 16-wide
# feature paths, the hidden layer over both, a 3-class head
INIT_SHAPES = [(16, 32), (16, 32), (64, 32), (32, 3)]


def _numpy(seed):
    return np.random.Generator(np.random.Philox(seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_key_is_numpys_seed_sequence_state(seed):
    want = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    assert seed_key(seed).tolist() == want.tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_draws_the_init_params_shapes_as_numpy_does(seed):
    ours, theirs = PhiloxGenerator(seed), _numpy(seed)
    for shape in INIT_SHAPES:
        limit = np.sqrt(6.0 / sum(shape))
        got = ours.uniform(-limit, limit, size=shape)
        want = theirs.uniform(-limit, limit, size=shape)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 450, 600, 3000, 4000])
def test_fisher_yates_bounds_draw_as_numpy_does(n):
    for seed in (0, 7, 303):
        ours, theirs = PhiloxGenerator(seed), _numpy(seed)
        bounds = np.arange(n, 1, -1)
        assert (ours.integers(0, bounds).tolist()
                == theirs.integers(0, bounds).tolist())
        assert (ours.uniform(0.0, 1.0, 3).tobytes()
                == theirs.uniform(0.0, 1.0, 3).tobytes())


def test_rejection_path_and_the_draw_after_it():
    """Bounds just above 2**31 reject about half of their first draws, and
    2**32 takes the raw 32-bit draw; the stream after them still agrees,
    for an odd and an even number of 32-bit draws used."""
    bounds = np.array([2 ** 31 + 1, 2 ** 31 + 3, 3_000_000_000, 2 ** 32 - 1,
                       2 ** 32, 5] * 40)
    for seed in (0, 1, 2 ** 64 + 5):
        ours, theirs = PhiloxGenerator(seed), _numpy(seed)
        for size in (bounds.size, bounds.size - 1):
            assert (ours.integers(0, bounds[:size]).tolist()
                    == theirs.integers(0, bounds[:size]).tolist())
            assert (ours.integers(0, np.array([9, 10, 11])).tolist()
                    == theirs.integers(0, np.array([9, 10, 11])).tolist())
            assert (ours.uniform(-1.0, 1.0, 5).tobytes()
                    == theirs.uniform(-1.0, 1.0, 5).tobytes())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 130),
       draws=st.lists(st.one_of(
           st.lists(st.integers(1, 2 ** 32), max_size=40),
           st.integers(0, 9)), max_size=6))
def test_any_mix_of_draws_matches_numpy(seed, draws):
    """A list of bounds is one integers call, an int n one uniform call of
    n doubles."""
    ours, theirs = PhiloxGenerator(seed), _numpy(seed)
    for draw in draws:
        if isinstance(draw, int):
            assert (ours.uniform(0.0, 1.0, draw).tobytes()
                    == theirs.uniform(0.0, 1.0, draw).tobytes())
        else:
            bounds = np.array(draw, dtype=np.int64)
            assert (ours.integers(0, bounds).tolist()
                    == theirs.integers(0, bounds).tolist())


def test_negative_seed_is_a_value_error_as_in_numpy():
    with pytest.raises(ValueError):
        _numpy(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        PhiloxGenerator(-1)


def test_bounds_outside_one_to_two_pow_32_are_refused():
    rng = PhiloxGenerator(0)
    with pytest.raises(ValueError):
        rng.integers(0, np.array([3, 0]))
    with pytest.raises(ValueError):
        rng.integers(0, np.array([2 ** 32 + 1]))


def test_one_default_init_params_is_one_kernel_call(monkeypatch):
    calls = []

    def counted(key, first, count):
        calls.append(count)
        return kernel(key, first, count)

    kernel = philox.philox_blocks
    monkeypatch.setattr(philox, "philox_blocks", counted)
    paths = [("t", "a", "t"), ("t", "b", "t")]
    params = init_params(PhiloxGenerator(3), paths, [16, 16], 32, [0, 1, 2],
                         paths)
    assert sum(w.size for w in params.param_list() if w.ndim == 2) == 3168
    assert calls == [1024]


@pytest.mark.parametrize("seed", [0, 5, 303])
def test_make_splits_is_the_numpy_generator_shuffle(seed):
    labels = np.arange(600) % 4
    splits = make_splits(labels, 3, seed=seed)
    perm = data._fisher_yates(_numpy(seed), np.flatnonzero(labels != 3))
    assert splits.train_ids.tolist() == sorted(perm[:144].tolist())
    assert splits.val_ids.tolist() == sorted(perm[144:180].tolist())
