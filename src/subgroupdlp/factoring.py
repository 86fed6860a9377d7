"""Integer factorization and multiplicative-subgroup construction.

The solvers need three things from here: the factorization of p-1 (to buy
a primitive root), a generator of the unique order-d subgroup of (Z/pZ)*
for a chosen divisor d | p-1, and the divisor of p-1 nearest a requested bit
size.  Factorization is trial division below a bound plus Pollard rho with
Brent's cycle finding, under an explicit iteration budget: results carry a
composite residual (`complete` when it is 1) instead of pretending to finish.
Trial division walks the primes in runs and skips a run whose product is
coprime to what is left with one gcd (Bernstein, "How to find smooth parts
of integers", 2004), dividing prime by prime only in a run that shares a
factor.
"""

import functools
import math
import random
from dataclasses import dataclass, field as dataclass_field
from itertools import compress

from .field import Residue, is_probable_prime

TRIAL_BOUND = 1 << 16
# primes per trial-division run.  Sized on p-1 = 2^e*a*b (a, b 27-bit
# primes, so every run is scanned; 2-vCPU Xeon, Python 3.11.7): runs of
# 32/64/128/256 primes scan one n in 196/143/112/114 us (675 us prime by
# prime) and build all products once in 0.59/0.67/0.84/1.17 ms.  64 keeps
# a one-shot call (build + one scan) at the 32-prime cost, ~0.8 ms.  `factor`
# builds one table per bound, so a small n sieves only up to ~2*isqrt(n).
TRIAL_RUN = 64
DEFAULT_RHO_BUDGET = 1 << 24
_PRIME_TRIES = 100000  # search_prime_with_divisor's draw limit
_ELEMENT_LIMIT = 1 << 22  # SubgroupSpec.elements enumerates no more
_DIVISOR_LIMIT = 1 << 20  # divisors lists no more


@functools.cache
def _trial_runs(bound=TRIAL_BOUND):
    """The primes below `bound` (>= 2) as (product, run) pairs of TRIAL_RUN
    ascending primes each, sieved on first use of the bound."""
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    primes = list(compress(range(bound), flags))
    runs = [primes[i:i + TRIAL_RUN] for i in range(0, len(primes), TRIAL_RUN)]
    return [(math.prod(run), run) for run in runs]


@dataclass
class FactoredInteger:
    """n together with its (possibly partial) prime factorization.

    factors is sorted [(prime, exponent), ...]; the unfactored composite
    remainder sits in `residual` (1 when `complete`), so product(p^e) *
    residual == n always holds.
    """

    n: int
    factors: list = dataclass_field(default_factory=list)
    residual: int = 1

    @property
    def complete(self):
        return self.residual == 1

    def product(self):
        return math.prod(p ** e for p, e in self.factors) * self.residual

    def verify(self):
        """Primality of every listed factor plus an exact product check."""
        if self.product() != self.n:
            return False
        if any(not is_probable_prime(p) or e < 1 for p, e in self.factors):
            return False
        primes = [p for p, _ in self.factors]
        return primes == sorted(set(primes))

    def divisor_count(self):
        return math.prod(e + 1 for _, e in self.factors)

    def format(self):
        """Printed form `n = p1^e1 * p2^e2 * ...` (^1 omitted)."""
        if not self.factors and self.residual == 1:
            return "%d = 1" % self.n
        parts = ["%d^%d" % (p, e) if e > 1 else "%d" % p
                 for p, e in self.factors]
        if self.residual != 1:
            parts.append("%d" % self.residual)
        return "%d = %s" % (self.n, " * ".join(parts))


def pollard_rho_brent(n, rng, max_iters=1 << 22):
    """A nontrivial factor of composite n, or None if the budget runs out.

    Brent's variant: batched gcd every 128 squarings, restart with a fresh
    polynomial when a cycle closes on a trivial gcd.  Both loops run four
    squarings per pass and reduce the product q once per four differences;
    the iterates, gcd checkpoints and budget are those of one squaring per
    pass, so the same rng gives the same factor.
    """
    if n % 2 == 0:
        return 2
    budget = max_iters
    while budget > 0:
        c = rng.randrange(1, n)
        y = rng.randrange(0, n)
        r = 1
        q = 1
        g = 1
        x = ys = y
        while g == 1 and budget > 0:
            x = y
            steps = min(r, budget)
            for _ in range(steps >> 2):
                y = (y * y + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
            for _ in range(steps & 3):
                y = (y * y + c) % n
            budget -= steps
            k = 0
            while k < r and g == 1 and budget > 0:
                ys = y
                steps = min(128, r - k, budget)
                for _ in range(steps >> 2):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y = (y3 * y3 + c) % n
                    q = q * (x - y1) * (x - y2) * (x - y3) * (x - y) % n
                for _ in range(steps & 3):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += steps
                budget -= steps
            r <<= 1
        if g == n:
            # batched gcd overshot; replay one squaring at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
            if g == n:
                continue
        if 1 < g < n:
            return g
    return None


def _iroot(n, k):
    """The integer k-th root of n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


def factor(n, rho_budget=DEFAULT_RHO_BUDGET):
    """Factor n >= 1 within a work budget.

    Trial division strips all primes below the power of two just above
    isqrt(n), or below TRIAL_BOUND if less; Pollard rho (with at most
    `rho_budget` >= 0 squarings in total, its polynomials drawn from a
    generator seeded by n) handles the rest, after a perfect power is split
    at its root.  A residual the budget cannot split stays in `residual`,
    not pretending to finish.  The generator is
    only seeded once rho is needed, so small n cost trial division alone.
    """
    if n < 1:
        raise ValueError("can only factor positive integers, got %d" % n)
    if rho_budget < 0:
        raise ValueError("rho budget must be >= 0, got %d" % rho_budget)
    rng = None
    counts = {}
    m = n
    for product, run in _trial_runs(min(TRIAL_BOUND,
                                        1 << math.isqrt(n).bit_length())):
        if run[0] * run[0] > m:
            break  # every smaller prime is tried: m is 1 or a prime
        if math.gcd(m, product) == 1:
            continue
        for p in run:
            while m % p == 0:
                counts[p] = counts.get(p, 0) + 1
                m //= p
    residual = 1
    if m > 1:
        pending = [m]
        budget = rho_budget
        while pending:
            chunk = pending.pop()
            if chunk < TRIAL_BOUND * TRIAL_BOUND or is_probable_prime(chunk):
                # below the trial bound squared, anything unsplit is prime
                counts[chunk] = counts.get(chunk, 0) + 1
                continue
            # a k-th power (k <= bits/16: every prime left is above 2^16);
            # rho would need ~sqrt(root) steps to split it
            k = next((k for k in range(2, chunk.bit_length() // 16 + 1)
                      if _iroot(chunk, k) ** k == chunk), 0)
            if k:
                pending += [_iroot(chunk, k)] * k
                continue
            rng = rng or random.Random(n & 0xFFFFFFFF)
            split = pollard_rho_brent(chunk, rng, max_iters=budget) \
                if budget > 0 else None
            if split is None:
                residual *= chunk
                continue
            budget >>= 1  # geometric split of the remaining budget
            pending.append(split)
            pending.append(chunk // split)
    return FactoredInteger(n=n, factors=sorted(counts.items()),
                           residual=residual)


def find_primitive_root(p, factored):
    """Smallest generator of (Z/pZ)*, as a Residue mod p.

    p must be prime (checked here) and `factored` the complete
    factorization of p-1: g is primitive iff g^((p-1)/q) != 1 for every
    prime q | p-1.
    """
    if not is_probable_prime(p):
        raise ValueError("modulus %d is not prime" % p)
    if not factored.complete or factored.n != p - 1:
        raise ValueError("need the complete factorization of p-1")
    if p == 2:
        return Residue(1, 2)
    exponents = [(p - 1) // q for q, _ in factored.factors]
    g = next((g for g in range(2, p)
              if all(pow(g, e, p) != 1 for e in exponents)), None)
    if g is None:
        raise ValueError("no primitive root found; is %d really prime?" % p)
    return Residue(g, p)


def check_divisor(p, d):
    """Raise ValueError unless d is a positive divisor of p-1."""
    if d < 1 or (p - 1) % d:
        raise ValueError("d = %d does not divide p-1 = %d" % (d, p - 1))


@dataclass(frozen=True)
class SubgroupSpec:
    """The unique order-d subgroup of (Z/pZ)*, carried by a generator zeta.

    p is read from zeta's modulus, so the two cannot disagree.  Construction
    proves that zeta has order exactly d -- zeta^d = 1 and zeta^(d/q) != 1
    for each prime q | d, from `factor(d)` -- and raises ValueError if it
    does not (or if d cannot be completely factored), so a search over a
    spec covers every zeta^k and its "no" is sound.
    """

    d: int
    zeta: Residue

    def __post_init__(self):
        z, d, p = self.zeta.value, self.d, self.p
        factored = factor(d)
        if not factored.complete:
            raise ValueError("cannot completely factor d = %d" % d)
        if pow(z, d, p) != 1 or any(pow(z, d // q, p) == 1
                                    for q, _ in factored.factors):
            raise ValueError("zeta = %d does not have order %d mod %d"
                             % (z, d, p))

    @property
    def p(self):
        return self.zeta.modulus

    def elements(self):
        """Explicit enumeration {zeta^k}; desk scale only."""
        if self.d > _ELEMENT_LIMIT:
            raise ValueError("refusing to enumerate %d elements" % self.d)
        out = set()
        acc = 1
        for _ in range(self.d):
            out.add(acc)
            acc = acc * self.zeta.value % self.p
        return out


def subgroup_generator(p, d, generator=None, factored=None):
    """SubgroupSpec for the order-d subgroup of (Z/pZ)*, d | p-1.

    `generator` is a primitive root mod p, as `find_primitive_root` returns
    it (found via `factored`, the factorization of p-1, when omitted --
    desk scale only for the latter).  A `generator` that is not primitive
    yields a zeta of order below d, which the spec refuses.
    """
    check_divisor(p, d)
    if generator is None:
        if factored is None:
            factored = factor(p - 1)
        generator = find_primitive_root(p, factored)
    elif generator.modulus != p:
        raise ValueError("generator lives mod %d, not mod %d"
                         % (generator.modulus, p))
    z = pow(generator.value, (p - 1) // d, p)
    return SubgroupSpec(d=d, zeta=Residue(z, p))


def divisors(factored):
    """All divisors of a completely factored integer, ascending."""
    if not factored.complete:
        raise ValueError("complete factorization required")
    if factored.divisor_count() > _DIVISOR_LIMIT:
        raise ValueError("%d divisors exceed the enumeration limit %d"
                         % (factored.divisor_count(), _DIVISOR_LIMIT))
    out = [1]
    for p, e in factored.factors:
        powers = [p ** i for i in range(e + 1)]
        out = [d * pw for d in out for pw in powers]
    return sorted(out)


def nearest_divisor(factored, target_bits):
    """The divisor of n whose log2 is closest to target_bits.

    Found by enumerating `divisors`, so up to 2^20 of them (P-256's p-1
    has 10,240).  Ties in distance prefer the smaller divisor; a size that
    is not a finite number (inf, nan) has no nearest divisor and raises
    ValueError.
    """
    if not math.isfinite(target_bits):
        raise ValueError("target size %r bits is not finite" % target_bits)
    return min(divisors(factored),
               key=lambda v: (abs(math.log2(v) - target_bits), v))


def search_prime_with_divisor(d, bits, rng):
    """A prime p with exactly `bits` bits and d | p-1.

    Draws cofactors c, even when d is odd so that p is odd, and tests
    p = c*d + 1; used to mint desk-scale moduli whose unit group has a
    planted subgroup of known order.
    """
    if d < 1:
        raise ValueError("divisor d must be >= 1, got %d" % d)
    step = 1 if d % 2 == 0 else 2
    lo = (1 << bits - 1) // d + 1
    lo += lo % step
    hi = ((1 << bits) - 2) // d
    if lo > hi:
        raise ValueError("no %d-bit prime can satisfy d | p-1" % bits)
    for _ in range(_PRIME_TRIES):
        p = rng.randrange(lo, hi + 1, step) * d + 1
        if p.bit_length() == bits and is_probable_prime(p):
            return p
    raise RuntimeError("no prime found in %d tries" % _PRIME_TRIES)
