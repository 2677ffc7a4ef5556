"""``vibrancy._stream`` against numpy.random, its oracle, bit for bit."""

import numpy as np
import pytest

from vibrancy._stream import Stream, generate_state


def _entropy(rng, i):
    """Seeds of every shape a run uses, and wider ones: single ints of 1 to
    200 bits, tuples of 0 to 7 ints (SeedSequence pools 4 words, so longer
    ones take its second mixing loop) and (seed, k, restart) triples."""
    kind = i % 3
    if kind == 0:
        return int.from_bytes(rng.bytes(25), "little") >> int(rng.integers(0, 200))
    if kind == 1:
        return tuple(int(rng.integers(0, 2**40)) >> int(rng.integers(0, 40))
                     for _ in range(int(rng.integers(0, 8))))
    return (int(rng.integers(0, 2**32)), int(rng.integers(2, 11)), int(rng.integers(0, 10)))


def test_seed_sequence_state_matches_numpy():
    rng = np.random.default_rng(0)
    for i in range(3000):
        entropy = _entropy(rng, i)
        expected = np.random.SeedSequence(entropy).generate_state(6)
        assert generate_state(entropy, 6) == expected.tolist(), entropy


def test_mixed_draws_match_the_generator():
    rng = np.random.default_rng(1)
    for i in range(2000):
        entropy = _entropy(rng, i)
        ours, theirs = Stream(entropy), np.random.default_rng(entropy)
        for _ in range(12):
            draw = int(rng.integers(0, 3))
            if draw == 0:
                assert ours.random() == theirs.random(), entropy
            elif draw == 1:
                # 1 draws nothing; 2**31 + 5 and 2**32 - 1 reject often
                n = int(rng.choice([1, 2, 3, 16, 360, 2**31 + 5, 2**32 - 1,
                                    int(rng.integers(1, 10**6))]))
                assert ours.integers(n) == theirs.integers(n), (entropy, n)
            else:
                n = int(rng.choice([0, 1, 2, 5, int(rng.integers(0, 400))]))
                assert ours.permutation(n) == theirs.permutation(n).tolist(), (entropy, n)


@pytest.mark.parametrize("seed", [0, 9, 2**32 - 1])
def test_long_permutation_matches_the_generator(seed):
    entropy = (seed, 7919)
    assert (Stream(entropy).permutation(100_000)
            == np.random.default_rng(np.random.SeedSequence(entropy)).permutation(100_000).tolist())


def test_numpy_integer_seeds_draw_as_python_ints():
    assert Stream(np.uint32(7)).random() == Stream(7).random()
    assert Stream((np.int64(3), 4)).integers(10) == Stream((3, 4)).integers(10)


@pytest.mark.parametrize("entropy", [-1, (3, -2), 1.5])
def test_bad_entropy_is_refused(entropy):
    with pytest.raises((ValueError, TypeError)):
        Stream(entropy)


@pytest.mark.parametrize("call", [lambda s: s.integers(0), lambda s: s.integers(2**32),
                                  lambda s: s.permutation(-1)])
def test_ranges_beyond_32_bits_are_refused(call):
    with pytest.raises(ValueError):
        call(Stream(1))
