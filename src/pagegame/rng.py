"""Seeded 64-bit generator used for every random decision in the engine.

The recurrence is splitmix64 (Steele, Lea, Vigna), chosen because it is a
one-line recipe that any implementation can reproduce bit for bit:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output <- z XOR (z >> 31)

Derived draws are defined on top of the raw stream:

* ``randrange(n)`` reads ``k = max(1, ceil(bitlength(n - 1) / 64))``
  words, concatenates them with the first as the most significant into a
  ``64 k``-bit value ``v`` and returns ``v mod n``. For every ``n <= 2^64``
  that is one word, ``next_u64() mod n``. By the modulo bias the most likely
  outcome is more likely than the least likely one by a relative
  ``1 / floor(2^(64 k) / n)``, about ``n / 2^(64 k)`` (2^-45.6 for a
  352,716-way tie, 2^-58 for a 2^70-way one);
* ``shuffle`` is a Fisher-Yates pass from the last index down, swapping
  position ``i`` with position ``randrange(i + 1)``.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic stream of 64-bit values from a 64-bit seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange() requires n >= 1")
        value = self.next_u64()
        for _ in range(((n - 1).bit_length() - 1) // 64):
            value = value << 64 | self.next_u64()
        return value % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
