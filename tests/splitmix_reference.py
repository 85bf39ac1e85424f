"""The scalar SplitMix64 stream: the reference for idtest.SplitMix64.points.

One 64-bit output per next64() call, with the standard split-mix
constants written out here, apart from src/.  Pytest does not collect
this file; test modules import it by name.
"""

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


class ScalarSplitMix64:
    """64-bit split-mix generator, one draw at a time."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next64() % n

    def indices(self, q: int, dim: int):
        """Endless element indices of q**dim elements, each digit below(q),
        most significant first; self.state is stored before each index is
        yielded.  The mixing is inlined, as it is the slow side of every
        differential test."""
        state = self.state
        while True:
            index = 0
            for _ in range(dim):
                state = (state + GAMMA) & MASK64
                z = ((state ^ (state >> 30)) * MIX1) & MASK64
                z = ((z ^ (z >> 27)) * MIX2) & MASK64
                index = index * q + (z ^ (z >> 31)) % q
            self.state = state
            yield index
