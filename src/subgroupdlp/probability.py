"""Success probabilities and trade-offs for randomized subgroup campaigns.

With d | p-1 and m re-randomized threads, the chance that some z_i = y_i*x
lands in the order-d subgroup is exactly 1-(1-d/(p-1))^m, bounded below by
1-exp(-dm/(p-1)).  Both are evaluated here to full double precision even
when d/(p-1) is around 2^-250: the ratio is formed as an exact rational
first (never by dividing two big doubles) and the outer arithmetic uses
expm1/log1p so nothing cancels.

The bound depends on d and m only through the product d*m, which is the
whole trade-off story: at a fixed success target, doubling the subgroup
halves the threads.

Every public function checks its own inputs; proving p prime is a cache
lookup after the first call (see `field.is_probable_prime`).
"""

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

from .field import is_probable_prime

__all__ = [
    "AttackEstimate", "ProbabilityTable", "success_lower_bound",
    "success_exact", "threads_for_probability", "estimate", "build_table",
    "int_log2",
]

# beyond this, 1 - e^-t is 1.0 in binary64 anyway
_SATURATION = 64.0


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


def success_lower_bound(d, m, p):
    """1 - exp(-d*m/(p-1)): the with-replacement collision bound.

    A function of the product d*m alone (given p), so it is exactly
    invariant under the doubling/halving trade-off.
    """
    _check(d, m, p)
    if m == 0:
        return 0.0
    t = Fraction(d * m, p - 1)
    if t >= _SATURATION:
        return 1.0
    return -math.expm1(-float(t))


def success_exact(d, m, p):
    """1 - (1 - d/(p-1))^m: the exact probability of at least one hit."""
    _check(d, m, p)
    if m == 0:
        return 0.0
    r = float(Fraction(d, p - 1))
    if m == 1:
        return r
    if r >= 1.0:
        return 1.0
    t = m * math.log1p(-r)
    if t <= -745.0:  # exp underflow: the miss probability is a strict 0
        return 1.0
    return -math.expm1(t)


def threads_for_probability(d, p, target):
    """Smallest m whose lower bound reaches `target`.

    Essentially ceil(-(p-1)*ln(1-target)/d), then nudged to the exact
    minimum of the monotone lower-bound evaluation by bisection.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target probability must lie strictly in (0, 1)")
    _check(d, 1, p)
    rate = Fraction(-math.log1p(-target))
    guess = (rate * (p - 1) + d - 1) // d
    hi = max(int(guess), 1)
    while success_lower_bound(d, hi, p) < target:
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if success_lower_bound(d, mid, p) >= target:
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
        lower_bound=success_lower_bound(d, m, p),
        exact=success_exact(d, m, p),
        log2_d=log2_d,
        log2_m=int_log2(m) if m else float("-inf"),
        log2_sqrt_d=log2_d / 2.0,
    )


@dataclass(frozen=True)
class ProbabilityTable:
    """Estimates on a (thread exponent) x (divisor) grid, plus renderers."""

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
        header_row = (self.rows[0] if self.rows
                      else [estimate(self.p, d, 1) for d in self.divisors])
        lines = []
        for header, attr in (("log2 d", "log2_d"),
                             ("log2 sqrt(d)", "log2_sqrt_d")):
            cells = "".join(("%.2f" % getattr(est, attr)).rjust(width)
                            for est in header_row)
            lines.append(header.ljust(label) + cells)
        lines.append("log2 m".ljust(label))
        for i, e in enumerate(self.thread_exponents):
            cells = "".join(("%.5f" % est.exact).rjust(width)
                            for est in self.rows[i])
            lines.append(str(e).ljust(label) + cells)
        return "\n".join(lines)

    def render_csv(self):
        """Machine form, one line per cell: log2_d,log2_m,lower_bound,exact,log2_sqrt_d."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["log2_d", "log2_m", "lower_bound", "exact",
                         "log2_sqrt_d"])
        for row in self.rows:
            for est in row:
                writer.writerow([repr(est.log2_d), repr(est.log2_m),
                                 repr(est.lower_bound), repr(est.exact),
                                 repr(est.log2_sqrt_d)])
        return buf.getvalue()


def build_table(p, divisors, thread_exponents):
    """AttackEstimate grid over divisors x 2^exponents (either may be empty)."""
    _check(1, 0, p)  # p alone, since an empty grid has no cell to check it
    rows = tuple(
        tuple(estimate(p, d, 1 << e) for d in divisors)
        for e in thread_exponents)
    return ProbabilityTable(p=p, divisors=tuple(divisors),
                            thread_exponents=tuple(thread_exponents),
                            rows=rows)
