"""Good fixture: sim-clock stamping, seeded RNGs, sorted iteration."""

import random


def stamp(now: float) -> float:
    """Timestamps come in from the simulation clock."""
    return now


def rng_for(seed: int) -> random.Random:
    """RNGs are constructed from explicit seeds."""
    return random.Random(seed)


def canonical_hosts(hosts: set[str]) -> list[str]:
    """Set iteration goes through sorted()."""
    return sorted(hosts)


def stale_hosts(known: list[str], alive: list[str]) -> list[str]:
    """Set algebra by operator is fine once it goes through sorted()."""
    return [host for host in sorted(set(known) - set(alive))]


def all_hosts(left: list[str], right: list[str]) -> list[str]:
    """Same for ``|``."""
    return sorted(set(left) | set(right))


def host_count(hosts: set[str]) -> int:
    """Order-neutral consumers of sets are fine."""
    return len(hosts)
