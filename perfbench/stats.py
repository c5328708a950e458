"""Order statistics for operation timings.

The tail metric is the highest percentile of ``TAIL_LADDER`` that leaves at
least ``MIN_BEYOND`` operations strictly beyond it, so that it never rests
on fewer than ten samples.
"""

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, pct):
    """Linear-interpolation percentile of ``values`` (0 <= pct <= 100)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile {pct} out of range")
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(count):
    """Highest ladder percentile with at least MIN_BEYOND of ``count``
    operations beyond it; the median when there are too few operations."""
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return 50.0


def tail(values):
    """(percentile used, value at it) for a list of operation times."""
    pct = tail_percentile(len(values))
    return pct, percentile(values, pct)


def median(values):
    return percentile(values, 50.0)


def trimmed_mean(values):
    """Mean of ``values`` without the lowest and the highest quarter of
    them (rounded down): a mean that one slow execution does not move."""
    if not values:
        raise ValueError("mean of no values")
    xs = sorted(values)
    cut = len(xs) // 4
    kept = xs[cut:len(xs) - cut]
    return sum(kept) / len(kept)
