"""Integer parsing, primality, seed derivation and the Residue record.

The exponent arithmetic itself is Python's built-in `pow(x, e, p)` and
`pow(y, -1, p)`, and input is read by the built-in `int(s, base)`; this
module supplies what the built-ins do not: a Miller-Rabin test for the
moduli that enter the package, the base (10, or 16 for 0x-prefixed
input), stable sub-seeds, and `Residue`, the (value, modulus) record that
results carry.

The Miller-Rabin test is memoised (a bounded LRU cache), so every caller
can prove every modulus it is handed: a catalog constant such as the
P-256 order costs 40 rounds the first time and a lookup afterwards.
"""

import functools
import random
from dataclasses import dataclass

MILLER_RABIN_ROUNDS = 40

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def parse_int(text):
    """Parse a decimal or 0x-prefixed hex integer, tolerating whitespace.

    The built-in int() reads it, so one sign is allowed, "+0x1e" reads 30,
    and "--5", "- 5" and "+ 5" raise ValueError.

    Round-trips bit-exactly: str(parse_int(s)) == s for canonical decimal s.
    """
    s = text.strip()
    return int(s, 16 if s.lstrip("+-")[:2].lower() == "0x" else 10)


# bounded: prime searches test many random candidates that never recur
@functools.lru_cache(maxsize=1024)
def is_probable_prime(n):
    """Miller-Rabin with MILLER_RABIN_ROUNDS random bases (error < 4^-rounds).

    Bases are drawn from a generator seeded by n itself, so the answer for a
    given n is stable across runs and threads, and a cached answer is the
    same proof.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = random.Random(n)
    for _ in range(MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Residue:
    """An exponent mod p, as computed by its producer: a bare record.

    It neither reduces `value` nor checks `modulus`; the code that builds
    one already holds both in range and validates p where it enters
    (group construction, `find_primitive_root`, `subgroup_generator`).
    """

    value: int
    modulus: int


def derive_seed(*parts):
    """Stable 64-bit sub-seed from a master seed plus context labels.

    Lets one campaign seed fan out into independent streams (multiplier
    draws, key draws, per-trial campaigns) without correlated state.
    Only campaigns call it, so hashlib (and OpenSSL) loads here, lazily.
    """
    import hashlib

    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
