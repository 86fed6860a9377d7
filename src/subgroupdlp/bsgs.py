"""Baby-step giant-step restricted to a subgroup of the exponent group.

Setting: Q = x*P in a group of prime order p, and H is the order-d
subgroup of (Z/pZ)* generated by zeta, for some divisor d | p-1.  For a
giant step s, any x = zeta^k in H satisfies k = a*s - b mod d with
0 <= a < ceil(d/s) and 0 <= b <= s-1 (these a*s - b run through
ceil(d/s)*s >= d consecutive integers), so

    zeta^b * Q  ==  (zeta^s)^a * P     for some such a, b.

Each side is a sweep of one fixed point, keyed by encoding through the
group's `sweep_keys`.  The solver tabulates the right side (giant steps) and
streams the left side (baby steps) against it; on a table hit it recovers
x = zeta^(a*s-b mod d) and accepts it only after re-verifying x*P == Q.
A single solve takes the balanced split s = n = isqrt(d) + 1: a = 0..n and
b = 0..n, n+1 multiplies on each side, so that a member's first hit has
b <= n-1 and the solve stays within theorem_budget(d).
The baby sweep may also start at a unit y, streaming (y*zeta^b)*Q; a hit
then gives x = y^(-1)*zeta^(a*s-b): that is a campaign thread's search.
The giant table depends only on (group, P, H, s), so `kept_giant` builds
it once and keeps it with the group object for campaigns and audits,
whose baby sweeps then need O(1) memory each.  A campaign whose table
serves t threads takes a smaller s, about sqrt(d/t), and a larger table
(see `parallel`).  In all, about
2*sqrt(d) group operations decide x in H -- with a certificate when it
is, and a sound "no" when it is not.  Membership of x in H never
requires knowing x.
"""

from dataclasses import dataclass, replace
from math import isqrt

from .field import Residue
from .groups import GroupElement

__all__ = [
    "DlpInstance", "Found", "NotInSubgroup", "Undecided",
    "DegenerateKeyError", "solve_in_subgroup", "giant_encodings",
    "kept_giant", "theorem_budget",
]


class DegenerateKeyError(ValueError):
    """Q is the identity: x = 0 sits outside the unit group entirely."""


@dataclass(frozen=True)
class DlpInstance:
    """One discrete-log problem: find/classify x with Q = x*P.

    `p` reads the group's (prime) order, the modulus of every exponent
    statement; it is not stored, so it cannot disagree with the group.
    """

    group: object
    P: GroupElement
    Q: GroupElement

    @property
    def p(self):
        return self.group.order

    def __post_init__(self):
        if not self.group.contains(self.P) or not self.group.contains(self.Q):
            raise ValueError("P and Q must be members of the group")
        if self.P.is_identity():
            raise ValueError("P must generate the group, not be the identity")

    @classmethod
    def from_secret(cls, group, x):
        """Build an instance with a known exponent (testing/demo helper)."""
        P = group.generator
        return cls(group=group, P=P, Q=group.scalar_mul(x, P))


@dataclass(frozen=True)
class Found:
    """x recovered and re-verified; (a, b) is the witnessing collision."""

    x: Residue
    a: int
    b: int
    steps: int


@dataclass(frozen=True)
class NotInSubgroup:
    """Both sweeps completed with no collision: x is provably outside H."""

    steps: int


@dataclass(frozen=True)
class Undecided:
    """Search stopped at its step cap before a verdict."""

    steps: int


def theorem_budget(d):
    """Worst-case scalar multiplications for one constrained search."""
    return 2 * (isqrt(d) + 2)


def _sweep(key, start, ratio, count, p):
    """key(start * ratio^i mod p) for i < count, one scalar multiply each.

    `key` is one `sweep_keys` function, so the point it multiplies is
    checked once for the whole sweep.
    """
    t = start
    for _ in range(count):
        yield key(t)
        t = t * ratio % p


def giant_encodings(group, P, H, cap=None, step=None):
    """The giant table of (group, P, H, step) and the multiplies it cost.

    The table maps the encoding of (zeta^s)^a * P to a, for a = 0 ..
    ceil(d/s) - 1 when `step` = s is given (a campaign's split, against s
    baby keys), and for a = 0..n with s = n = isqrt(d) + 1 when it is not
    (a single solve's).  A key met again (zeta^s has order <= the last a,
    or a spec's zeta does not have the order it claims) keeps every a, as
    a tuple in increasing order, so a candidate that fails verification
    does not hide the next one.  A `cap` below the cost builds only the
    first `cap` keys; the cost returned is still the whole table's.
    """
    if step is None:
        step = isqrt(H.d) + 1
        count = step + 1
    else:
        count = -(-H.d // step)
    built = count if cap is None else min(count, cap)
    table = {}
    for a, key in enumerate(_sweep(group.sweep_keys(P), 1,
                                   pow(H.zeta.value, step, H.p), built,
                                   H.p)):
        if table.setdefault(key, a) != a:
            first = table[key]
            table[key] = (first if type(first) is tuple else (first,)) + (a,)
    return table, count


def kept_giant(group, P, H, step=None):
    """`giant_encodings(group, P, H, step=step)`, built once per group object.

    The (table, cost) pair is kept in the group object's own `__dict__`,
    keyed by (P, H, step), so it lives as long as the group and every
    campaign and audit on that group reads it; a CountingGroup keeps its
    own tables and never reads those of the group it wraps.  `cost` is
    what the build took, charged to every search that reads the table.
    """
    kept = vars(group).setdefault("_kept_giants", {})
    key = (P, H, step)
    if key not in kept:
        kept[key] = giant_encodings(group, P, H, step=step)
    return kept[key]


def _baby_sweep(group, P, Q, key, H, table, y, step, count, cap=None):
    """Stream key(y * zeta^b) for b < count against the giant `table`.

    `key` is `group.sweep_keys(Q)`, y a unit mod p and `step` the giant
    step s the table was built with.  A hit (a, b) proposes
    x = y^(-1) * zeta^(a*s-b), accepted only if x*P == Q.  A `cap` below
    `count` sweeps only the first `cap` keys.
    Returns Found / NotInSubgroup / Undecided with the baby steps alone.
    """
    p, zeta, d = H.p, H.zeta.value, H.d
    swept = count if cap is None else min(count, cap)
    for b, k in enumerate(_sweep(key, y, zeta, swept, p)):
        hit = table.get(k)
        if hit is not None:
            for a in hit if type(hit) is tuple else (hit,):
                x = pow(y, -1, p) * pow(zeta, (a * step - b) % d, p) % p
                # soundness gate: accept only a re-verified exponent
                if group.scalar_mul(x, P) == Q:
                    return Found(x=Residue(x, p), a=a, b=b, steps=b + 1)
    return NotInSubgroup(count) if swept == count else Undecided(cap)


def _check_solvable(instance, H):
    """The entry checks shared by a single solve and a campaign."""
    if H.p != instance.p:
        raise ValueError("subgroup lives mod %d, instance mod %d"
                         % (H.p, instance.p))
    if instance.Q.is_identity():
        raise DegenerateKeyError("Q is the identity; x = 0 is not a unit")


def solve_in_subgroup(instance, H, step_cap=None, shared_giant=None):
    """Decide whether the hidden exponent lies in H, recovering it if so.

    Builds the balanced giant table (n+1 multiplies, n = isqrt(d) + 1),
    then streams the baby steps zeta^b * Q for b = 0..n against it and
    stops at the first hit that verifies.  A member's first verified hit
    has b <= n-1, so the search plus its verify multiply stays within
    theorem_budget(d).

    Returns Found / NotInSubgroup / Undecided.  `step_cap` (>= 0) bounds
    the number of scalar multiplications (the verification multiplies are
    not charged).  `shared_giant` is a (table, cost) pair from
    `kept_giant` at the default step, built once elsewhere: the solve
    then runs only the baby sweep, but charges `cost` in `steps` and
    `step_cap` as if it had built the table, so its verdict and steps are
    those of a fresh solve.
    """
    _check_solvable(instance, H)
    if step_cap is not None and step_cap < 0:
        raise ValueError("step cap must be >= 0, got %d" % step_cap)
    group, P, Q = instance.group, instance.P, instance.Q
    table, giant_steps = shared_giant or giant_encodings(group, P, H,
                                                         step_cap)
    if step_cap is not None and step_cap < giant_steps:
        return Undecided(step_cap)
    cap = None if step_cap is None else step_cap - giant_steps
    n = isqrt(H.d) + 1
    verdict = _baby_sweep(group, P, Q, group.sweep_keys(Q), H, table, 1,
                          n, n + 1, cap=cap)
    return replace(verdict, steps=giant_steps + verdict.steps)
