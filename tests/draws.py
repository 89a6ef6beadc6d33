"""Bounded integers for seeded test data, drawn from a `sampling.Stream`."""


def randint(rng, a: int, b: int) -> int:
    """Uniform int in [a, b] from one output of `rng` (needs a <= b)."""
    return a + rng.offsets(b - a + 1)[0]
