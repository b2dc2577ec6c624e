from pagegame import SplitMix64

import pytest

# Published splitmix64 outputs for seed 0; any conforming implementation
# must reproduce these exactly.
SEED0_STREAM = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_reference_stream_seed_zero():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED0_STREAM


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_diverge():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_randrange_bounds():
    rng = SplitMix64(7)
    draws = [rng.randrange(5) for _ in range(200)]
    assert all(0 <= d < 5 for d in draws)
    assert set(draws) == {0, 1, 2, 3, 4}


def test_randrange_rejects_empty_range():
    with pytest.raises(ValueError):
        SplitMix64(0).randrange(0)


def test_shuffle_is_seed_deterministic():
    items1 = list(range(10))
    items2 = list(range(10))
    SplitMix64(99).shuffle(items1)
    SplitMix64(99).shuffle(items2)
    assert items1 == items2
    assert sorted(items1) == list(range(10))


@pytest.mark.parametrize("n", (1, 2, 5, 352_716, 2**63 + 1, 2**64 - 1, 2**64))
def test_randrange_up_to_two_to_the_64_reads_one_word(n):
    rng, twin = SplitMix64(11), SplitMix64(11)
    for _ in range(20):
        assert rng.randrange(n) == twin.next_u64() % n
    assert rng.next_u64() == twin.next_u64()


def test_randrange_past_two_to_the_64_concatenates_words():
    rng, twin = SplitMix64(5), SplitMix64(5)
    draws = []
    for _ in range(50):
        draws.append(rng.randrange(2**100))
        high, low = twin.next_u64(), twin.next_u64()
        assert draws[-1] == (high << 64 | low) % 2**100
    assert rng.next_u64() == twin.next_u64()
    assert max(draws) >= 2**64


@pytest.mark.parametrize("n, words", ((2**64 + 1, 2), (2**128, 2), (2**128 + 1, 3)))
def test_randrange_reads_as_many_words_as_n_minus_one_has_bits(n, words):
    rng, twin = SplitMix64(3), SplitMix64(3)
    rng.randrange(n)
    for _ in range(words):
        twin.next_u64()
    assert rng.next_u64() == twin.next_u64()
