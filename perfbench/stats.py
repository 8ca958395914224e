"""Pure helpers of the benchmark: percentiles, SLO rate search, failure
shares, run-to-run spread and the metric-name rules.

Nothing here imports the program under test, so the unit tests in
``perfbench/tests`` run without it.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass

#: Candidate percentiles for a tail, lowest first.
TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10

#: Terminal statuses that count against ``failed_share`` (and as a
#: missed SLO).  ``done`` is success; ``cancelled`` is a client's own
#: withdrawal and counts as attempted only.
FAILED_STATUSES = ("shed", "rejected", "timed_out", "failed")

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


@dataclass(frozen=True)
class Percentile:
    """One percentile with the sample it was read from.

    ``level`` is the percentile (100.0 for the maximum), ``count`` the
    sample size and ``beyond`` how many samples rank above it.
    """

    level: float
    value: float
    count: int
    beyond: int

    @property
    def label(self) -> str:
        return "max" if self.level >= 100.0 else f"p{self.level:g}"


def percentile(values, level: float) -> Percentile:
    """Nearest-rank percentile of *values* (``level`` in (0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < level <= 100.0:
        raise ValueError(f"percentile level must be in (0, 100], got {level}")
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return Percentile(level, ordered[rank - 1], len(ordered),
                      len(ordered) - rank)


def tail_percentile(values, min_beyond: int = MIN_BEYOND) -> Percentile:
    """The highest of :data:`TAIL_LEVELS` with at least *min_beyond*
    samples ranked above it.

    A sample too small for even the median to qualify reports its
    maximum (``level`` 100, ``beyond`` 0), so the record still says how
    few samples there were.
    """
    best = None
    for level in TAIL_LEVELS:
        candidate = percentile(values, level)
        if candidate.beyond >= min_beyond:
            best = candidate
    return best if best is not None else percentile(values, 100.0)


def failed_share(statuses: dict[str, int]) -> float:
    """Shed, rejected, timed-out and failed queries over all attempted.

    The base is every query submitted, including those turned away
    before admission, so shedding cannot shrink its own denominator.
    """
    attempted = sum(statuses.values())
    if attempted <= 0:
        raise ValueError("failed_share of zero attempted queries")
    failed = sum(statuses.get(status, 0) for status in FAILED_STATUSES)
    return failed / attempted


def meets_slo(latencies, slo: float, level: float = 99.0) -> bool:
    """Whether the *level* percentile of *latencies* is within *slo*.

    ``None`` entries are queries that never returned in time (shed,
    rejected, timed out, failed): they count as infinitely late.
    """
    values = [math.inf if value is None else value for value in latencies]
    if not values:
        return False
    return percentile(values, level).value <= slo


def max_rate_within_slo(per_rate: dict[float, list], slo: float,
                        level: float = 99.0) -> float:
    """Highest fixed rate at which the *level* latency meets *slo*.

    *per_rate* maps each offered rate to its class's latencies (``None``
    for a missed query).  Rates are walked upwards and the walk stops
    at the first rate that misses, so a lucky pass beyond an overload
    does not count.  0.0 when even the lowest rate misses.
    """
    best = 0.0
    for rate in sorted(per_rate):
        if not meets_slo(per_rate[rate], slo, level):
            break
        best = float(rate)
    return best


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def check_metric_name(name: str) -> str:
    """Return *name* if it is a valid metric name, else raise.

    A name starts with a letter or digit and has at most 64 letters,
    digits, ``_``, ``.`` and ``-``.
    """
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    """Return *unit* if it is a valid unit, else raise."""
    if not isinstance(unit, str) or not _UNIT.fullmatch(unit):
        raise ValueError(f"invalid metric unit {unit!r}")
    return unit
