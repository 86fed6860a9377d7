"""Independent oracles for the benchmark's correctness checks.

Everything here recomputes an expected answer with arithmetic of its own
(primality, subgroup membership, curve points, 50-digit probabilities), so
a wrong verdict from the library cannot also corrupt the check that is
meant to catch it.
"""

import random
import re
from math import isqrt

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the first 13 prime bases is exact below this bound.
_DETERMINISTIC_BELOW = 3317044064679887385961981


def is_prime(n):
    """Miller-Rabin: exact below 3.3e24, plus 40 seeded bases above it."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = list(_BASES)
    if n >= _DETERMINISTIC_BELOW:
        rng = random.Random(n ^ 0x5BD1E995)
        bases += [rng.randrange(2, n - 1) for _ in range(40)]
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo, hi, step=1, offset=0):
    """A prime n = step*c + offset with lo <= c < hi, drawn from rng."""
    while True:
        n = step * rng.randrange(lo, hi) + offset
        if is_prime(n):
            return n


def theorem_budget(d):
    """A search that finds nothing runs both sweeps: 2*(isqrt(d)+2) steps."""
    return 2 * (isqrt(d) + 2)


def in_subgroup(x, d, p):
    """x lies in the order-d subgroup of (Z/pZ)* iff x^d = 1 mod p."""
    return pow(x, d, p) == 1


def planted_member(rng, d, p):
    """x = g^((p-1)/d * k) for a random unit g: always in the subgroup."""
    return pow(rng.randrange(2, p - 1), (p - 1) // d, p)


def non_member(rng, d, p):
    """A uniform unit outside the order-d subgroup."""
    while True:
        x = rng.randrange(1, p)
        if not in_subgroup(x, d, p):
            return x


# -- short-Weierstrass points, Jacobian coordinates ---------------------------


def read_curve_file(path):
    """The integer fields of a `key = value` curve file, as a dict."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    return {k: int(v, 0) for k, v in out.items() if k != "name"}


def _jacobian_double(P, a, q):
    X, Y, Z = P
    if Y == 0:
        return None
    YY = Y * Y % q
    S = 4 * X * YY % q
    ZZ = Z * Z % q
    M = (3 * X * X + a * ZZ * ZZ) % q
    X3 = (M * M - 2 * S) % q
    return X3, (M * (S - X3) - 8 * YY * YY) % q, 2 * Y * Z % q


def _jacobian_add(P, R, a, q):
    if P is None:
        return R
    if R is None:
        return P
    X1, Y1, Z1 = P
    X2, Y2, Z2 = R
    Z1Z1 = Z1 * Z1 % q
    Z2Z2 = Z2 * Z2 % q
    U1 = X1 * Z2Z2 % q
    U2 = X2 * Z1Z1 % q
    S1 = Y1 * Z2 * Z2Z2 % q
    S2 = Y2 * Z1 * Z1Z1 % q
    if U1 == U2:
        return _jacobian_double(P, a, q) if S1 == S2 else None
    H = (U2 - U1) % q
    R_ = (S2 - S1) % q
    HH = H * H % q
    HHH = H * HH % q
    X3 = (R_ * R_ - HHH - 2 * U1 * HH) % q
    Y3 = (R_ * (U1 * HH - X3) - S1 * HHH) % q
    return X3, Y3, H * Z1 * Z2 % q


def curve_mul(k, point, curve):
    """k * (x, y) on the curve as an affine tuple, or None for infinity."""
    q, a = curve["q"], curve["a"] % curve["q"]
    acc = None
    base = (point[0], point[1], 1)
    while k:
        if k & 1:
            acc = _jacobian_add(acc, base, a, q)
        base = _jacobian_double(base, a, q)
        k >>= 1
    if acc is None:
        return None
    X, Y, Z = acc
    zi = pow(Z, -1, q)
    zi2 = zi * zi % q
    return X * zi2 % q, Y * zi2 * zi % q


# -- checks on CLI output ---------------------------------------------------------


def exact_success(d, m, p):
    """1 - (1 - d/(p-1))^m to 50 significant digits (mpmath)."""
    import mpmath
    with mpmath.workdps(50):
        r = mpmath.mpf(d) / (p - 1)
        return float(-mpmath.expm1(m * mpmath.log1p(-r)))


def exact_log2(n):
    import mpmath
    with mpmath.workdps(50):
        return float(mpmath.log(n, 2))


PROB_TOL = 1e-4  # largest accepted error of a printed prob-table cell


def prob_table_ok(text, p, blocks):
    """Every printed cell of the text grids matches the exact probability.

    `blocks` lists (divisors, thread exponents) per grid in print order.
    The `log2 d` header must name the divisors (to 0.01), and each row
    `e  c1 c2 ...` must hold 1-(1-d/(p-1))^(2^e) within PROB_TOL.
    """
    grids = text.strip().split("\n\n")
    if len(grids) != len(blocks):
        return False
    for grid, (divisors, exponents) in zip(grids, blocks):
        lines = grid.splitlines()
        header = lines[0].split()
        if header[:2] != ["log2", "d"]:
            return False
        logs = [float(v) for v in header[2:]]
        if len(logs) != len(divisors) or any(
                abs(v - exact_log2(d)) > 0.01 for v, d in zip(logs, divisors)):
            return False
        rows = [ln.split() for ln in lines if ln[:1].isdigit()]
        if [int(r[0]) for r in rows] != list(exponents):
            return False
        for row, e in zip(rows, exponents):
            cells = [float(v) for v in row[1:]]
            if len(cells) != len(divisors):
                return False
            for cell, d in zip(cells, divisors):
                if abs(cell - exact_success(d, 1 << e, p)) > PROB_TOL:
                    return False
    return True


def factor_line_ok(text, n):
    """`n = p1^e1 * p2 * ...`: multiplies back to n, every part prime."""
    left, eq, right = text.strip().partition("=")
    if not eq or int(left) != n:
        return False
    product = 1
    for term in right.split("*"):
        base, caret, exp = term.strip().partition("^")
        base, exp = int(base), int(exp) if caret else 1
        if not is_prime(base) or exp < 1:
            return False
        product *= base ** exp
    return product == n


_KEYCHECK_ROW = re.compile(r"\[(scalar|point)\]\s+(\S+)\s+\((\d+) steps used")


def keycheck_ok(text, rc, x, d, p):
    """One audited subgroup; verdict and exit code agree with x^d mod p."""
    rows = _KEYCHECK_ROW.findall(text)
    if len(rows) != 1:
        return False
    _, status, steps = rows[0]
    if in_subgroup(x, d, p):
        return (rc == 0 and status == "member"
                and "recommendation: discard" in text)
    return (rc == 1 and status == "non-member"
            and int(steps) == theorem_budget(d)
            and "recommendation: keep" in text)


def audit_ok(text, rc):
    """`audit` of a built-in: exit 0 and a final `overall: pass` line."""
    return rc == 0 and text.rstrip().splitlines()[-1:] == ["overall: pass"]
