"""Shared utilities: flop/byte tallies, deterministic RNG helpers, timers."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".counters": ("Tally", "current_tally", "tally"),
    ".rng": ("make_rng",),
})
