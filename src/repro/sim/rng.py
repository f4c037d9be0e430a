"""Named, independently seeded random streams.

Stochastic processes in the simulation (packet arrivals, failure arrivals,
repair durations, MAC backoff, mobility) each draw from their own stream so
that changing e.g. the failure seed does not perturb the workload.  Streams
are derived deterministically from a master seed and the stream name, so a
``(seed, name)`` pair always yields the same sequence.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def spawn_seed(master_seed: int, *tokens: object) -> int:
    """Derive an independent child seed from *master_seed* and a spawn key.

    The sweep subsystem gives every job in a parameter grid its own master
    seed derived from the sweep seed and the job's stable identity (its spawn
    key), so jobs are statistically independent yet fully reproducible: the
    same ``(seed, tokens)`` always yields the same child seed, regardless of
    how many jobs run, in which order, or on how many workers.
    """
    material = ":".join([str(int(master_seed))] + [str(t) for t in tokens])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """Factory and registry of named :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream registered under *name*, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(self._derive_seed(name))
        return self._streams[name]

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    # Convenience draws -----------------------------------------------------

    def exponential(self, name: str, mean: float) -> float:
        """Draw from an exponential distribution with the given *mean*."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self.stream(name).expovariate(1.0 / mean)

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw uniformly from ``[low, high]``."""
        if high < low:
            raise ValueError(f"invalid uniform bounds ({low}, {high})")
        return self.stream(name).uniform(low, high)

    def randint(self, name: str, low: int, high: int) -> int:
        """Draw an integer uniformly from ``[low, high]`` inclusive."""
        return self.stream(name).randint(low, high)

    def choice(self, name: str, items):
        """Pick one element of *items* uniformly at random."""
        return self.stream(name).choice(items)

    def sample(self, name: str, items, k: int):
        """Sample *k* distinct elements of *items*."""
        return self.stream(name).sample(items, k)

    def random(self, name: str) -> float:
        """Draw a float uniformly from ``[0, 1)``."""
        return self.stream(name).random()

    def spawn(self, *tokens: object) -> "RandomStreams":
        """A child registry whose master seed is derived via :func:`spawn_seed`.

        Children are independent of the parent and of each other (different
        tokens), and deterministic in the parent seed and the tokens.
        """
        return RandomStreams(spawn_seed(self.master_seed, *tokens))

    def reset(self) -> None:
        """Re-seed every existing stream back to its initial state.

        Streams are re-seeded *in place* (``Random.seed`` resets the state a
        fresh ``Random(seed)`` would have) so that callers holding a stream
        object — e.g. the network, which keeps the backoff stream's
        ``getrandbits`` — observe the reset instead of drawing from a stale
        generator.
        """
        for name, stream in self._streams.items():
            stream.seed(self._derive_seed(name))
