"""Summary statistics shared by the traced and untraced runs."""

from statistics import fmean


def tail(values) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, and how
    many samples lie beyond it (the maximum, with none, below 11 samples)."""
    xs = sorted(values)
    i = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[i], len(xs) - 1 - i


def pass_mean(stat, per_pass) -> float:
    """Mean over passes of a per-pass statistic.

    A shared 2-core VM was seen to switch between a fast and a slow CPU
    state, about 2x apart, for stretches of seconds to minutes, set by other
    tenants.  A median or a low quantile over a run then jumps between the
    two states with the share of time spent in each; a mean over passes
    moves smoothly with that share.
    """
    return fmean(stat(lat) for lat in per_pass)
