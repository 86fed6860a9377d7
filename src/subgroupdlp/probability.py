"""Success probabilities and trade-offs for randomized subgroup campaigns.

With d | p-1 and m re-randomized threads, the chance that some z_i = y_i*x
lands in the order-d subgroup is exactly 1-(1-d/(p-1))^m, bounded below by
1-exp(-dm/(p-1)).  Both are evaluated here to full double precision even
when d/(p-1) is around 2^-250: the ratio is a correctly rounded int
division (never a division of two big doubles) and the outer arithmetic
uses expm1/log1p so nothing cancels.

The bound depends on d and m only through the product d*m, which is the
whole trade-off story: at a fixed success target, doubling the subgroup
halves the threads.

Every public function checks its own inputs once, then evaluates through
unchecked private cores; proving p prime is a cache lookup after the first
call (see `field.is_probable_prime`).
"""

import math
from dataclasses import dataclass

from .field import is_probable_prime

__all__ = [
    "AttackEstimate", "ProbabilityTable", "success_lower_bound",
    "success_exact", "threads_for_probability", "estimate", "build_table",
    "int_log2",
]

# once t = d*m/(p-1) reaches this, 1 - e^-t is 1.0 in binary64 anyway
_SATURATION = 64


def int_log2(n):
    """log2 of a positive integer of any size (math.log2 takes any int)."""
    if n <= 0:
        raise ValueError("log2 of non-positive integer")
    return math.log2(n)


def _check(d, m, p):
    if not is_probable_prime(p):
        raise ValueError("p must be prime")
    if not 1 <= d <= p - 1:
        raise ValueError("need 1 <= d <= p-1")
    if m < 0:
        raise ValueError("thread count must be >= 0")


def _lower_bound(d, m, p):
    if d * m >= _SATURATION * (p - 1):
        return 1.0
    return -math.expm1(-(d * m / (p - 1)))


def _exact(d, m, p):
    if m == 0:
        return 0.0
    if d * m >= _SATURATION * (p - 1):
        return 1.0
    r = d / (p - 1)
    if m == 1:
        return r
    if r >= 1.0:
        return 1.0
    return -math.expm1(m * math.log1p(-r))


def success_lower_bound(d, m, p):
    """1 - exp(-d*m/(p-1)): the with-replacement collision bound.

    A function of the product d*m alone (given p), so it is exactly
    invariant under the doubling/halving trade-off.
    """
    _check(d, m, p)
    return _lower_bound(d, m, p)


def success_exact(d, m, p):
    """1 - (1 - d/(p-1))^m: the exact probability of at least one hit.

    Saturates where the lower bound does (exact >= bound, which is 1.0
    there), so m never has to fit in a float once the answer is 1.0.
    """
    _check(d, m, p)
    return _exact(d, m, p)


def threads_for_probability(d, p, target):
    """Smallest m whose lower bound reaches `target`.

    Essentially ceil(-(p-1)*ln(1-target)/d), then nudged to the exact
    minimum of the monotone lower-bound evaluation by bisection.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target probability must lie strictly in (0, 1)")
    _check(d, 1, p)
    num, den = (-math.log1p(-target)).as_integer_ratio()
    guess = (num * (p - 1) + (d - 1) * den) // (d * den)
    hi = max(guess, 1)
    while _lower_bound(d, hi, p) < target:
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _lower_bound(d, mid, p) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class AttackEstimate:
    """One grid cell: campaign (p, d, m) with its probabilities and cost."""

    p: int
    d: int
    m: int
    lower_bound: float
    exact: float
    log2_d: float
    log2_m: float
    log2_sqrt_d: float


def estimate(p, d, m):
    _check(d, m, p)
    log2_d = int_log2(d)
    return AttackEstimate(
        p=p, d=d, m=m,
        lower_bound=_lower_bound(d, m, p),
        exact=_exact(d, m, p),
        log2_d=log2_d,
        log2_m=int_log2(m) if m else float("-inf"),
        log2_sqrt_d=log2_d / 2.0,
    )


@dataclass(frozen=True)
class ProbabilityTable:
    """Estimates on a (thread exponent) x (divisor) grid.

    `render_text()` gives the aligned grid, `table()` the machine formats.
    """

    p: int
    divisors: tuple
    thread_exponents: tuple
    rows: tuple  # rows[i][j] = estimate(p, divisors[j], 2**thread_exponents[i])

    def cell(self, i, j):
        return self.rows[i][j]

    def render_text(self):
        """Aligned text: log2 d / log2 sqrt(d) headers, one row per log2 m."""
        width = 12
        label = len("log2 sqrt(d)") + 2
        lines = []
        for header, root in (("log2 d", 1), ("log2 sqrt(d)", 2)):
            lines.append(header.ljust(label) + "".join(
                ("%.2f" % (int_log2(d) / root)).rjust(width)
                for d in self.divisors))
        lines.append("log2 m".ljust(label))
        for i, e in enumerate(self.thread_exponents):
            cells = "".join(("%.5f" % est.exact).rjust(width)
                            for est in self.rows[i])
            lines.append(str(e).ljust(label) + cells)
        return "\n".join(lines)

    def table(self):
        """(header, rows) for the machine formats: one row per cell."""
        return (("log2_d", "log2_m", "lower_bound", "exact", "log2_sqrt_d"),
                [(est.log2_d, est.log2_m, est.lower_bound, est.exact,
                  est.log2_sqrt_d) for row in self.rows for est in row])


def build_table(p, divisors, thread_exponents):
    """AttackEstimate grid over divisors x 2^exponents (either may be empty)."""
    for d in divisors or (1,):  # checked here, since a grid may have no cell
        _check(d, 0, p)
    for e in thread_exponents:
        if e < 0:
            raise ValueError("thread exponent must be >= 0, got %d" % e)
    rows = tuple(
        tuple(estimate(p, d, 1 << e) for d in divisors)
        for e in thread_exponents)
    return ProbabilityTable(p=p, divisors=tuple(divisors),
                            thread_exponents=tuple(thread_exponents),
                            rows=rows)
