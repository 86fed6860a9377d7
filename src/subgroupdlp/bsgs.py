"""Baby-step giant-step restricted to a subgroup of the exponent group.

Setting: Q = x*P in a group of prime order p, and H is the order-d
subgroup of (Z/pZ)* generated by zeta, for some divisor d | p-1.  Writing
n = isqrt(d) + 1, any x = zeta^k in H satisfies k = a*n - b with
0 <= a <= n and 0 <= b <= n-1, so

    zeta^b * Q  ==  (zeta^n)^a * P     for some such a, b.

Each side is a sweep of one fixed point, keyed by encoding through the
group's `sweep_keys`.  The solver tabulates the right side (giant steps) and
streams the left side (baby steps) against it; on a table hit it recovers
x = zeta^(a*n-b mod d) and accepts it only after re-verifying x*P == Q.
The baby sweep may also start at a unit y, streaming (y*zeta^b)*Q; a hit
then gives x = y^(-1)*zeta^(a*n-b): that is a campaign thread's search.
The giant table costs n+1 scalar multiplications and depends only on
(group, P, H), so campaigns and repeated audits build it once and share
it; each baby sweep then needs O(1) memory and at most n+1 multiplies.
In all, about 2*sqrt(d) group operations decide x in H -- with a
certificate when it is, and a sound "no" when it is not.  Membership of x
in H never requires knowing x.
"""

from dataclasses import dataclass, replace
from math import isqrt

from .field import Residue
from .groups import GroupElement

__all__ = [
    "DlpInstance", "Found", "NotInSubgroup", "Undecided",
    "DegenerateKeyError", "solve_in_subgroup", "giant_encodings",
    "theorem_budget",
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
    """Search stopped early (step cap or cancellation) before a verdict."""

    steps: int


def theorem_budget(d):
    """Worst-case scalar multiplications for one constrained search."""
    return 2 * (isqrt(d) + 2)


class _Stopped(Exception):
    """A sweep cut short by cancellation or the step cap; args[0] = its muls."""


def _sweep(key, start, ratio, n, p, should_stop=None, cap=None):
    """key(start * ratio^i mod p) for i = 0..n, one scalar multiply each.

    `key` is one `sweep_keys` function, so the point it multiplies is
    checked once for the whole sweep.  Before each multiply it polls
    `should_stop` and then checks that fewer than `cap` multiplies are
    done; either stop raises _Stopped(i).
    """
    t = start
    for i in range(n + 1):
        if should_stop is not None and should_stop():
            raise _Stopped(i)
        if cap is not None and i >= cap:
            raise _Stopped(i)
        yield key(t)
        t = t * ratio % p


def giant_encodings(group, P, H, should_stop=None, cap=None):
    """The giant table of (group, P, H) and the n+1 multiplies it cost.

    The table maps the encoding of (zeta^n)^a * P to a, for a = 0..n.  A
    key met again (zeta^n has order <= n, or a spec's zeta does not have
    the order it claims) keeps every a, as a tuple in increasing order, so
    a candidate that fails verification does not hide the next one.  The
    table depends only on (group, P, H), so campaigns and repeated audits
    of one record build it once and pass it to `solve_in_subgroup` as
    `shared_giant`.  `should_stop` and `cap` stop the build as in `_sweep`.
    """
    n = isqrt(H.d) + 1
    table = {}
    for a, key in enumerate(_sweep(group.sweep_keys(P), 1,
                                   pow(H.zeta.value, n, H.p), n, H.p,
                                   should_stop, cap)):
        if table.setdefault(key, a) != a:
            first = table[key]
            table[key] = (first if type(first) is tuple else (first,)) + (a,)
    return table, n + 1


def _baby_sweep(group, P, Q, key, H, table, y, should_stop=None, cap=None):
    """Stream key(y * zeta^b) for b = 0..n against the giant `table`.

    `key` is `group.sweep_keys(Q)` and y a unit mod p.  A hit (a, b)
    proposes x = y^(-1) * zeta^(a*n-b), accepted only if x*P == Q.
    Returns Found / NotInSubgroup / Undecided with the baby steps alone.
    """
    p, zeta, d = H.p, H.zeta.value, H.d
    n = isqrt(d) + 1
    try:
        for b, k in enumerate(_sweep(key, y, zeta, n, p, should_stop, cap)):
            hit = table.get(k)
            if hit is not None:
                for a in hit if type(hit) is tuple else (hit,):
                    x = pow(y, -1, p) * pow(zeta, (a * n - b) % d, p) % p
                    # soundness gate: accept only a re-verified exponent
                    if group.scalar_mul(x, P) == Q:
                        return Found(x=Residue(x, p), a=a, b=b, steps=b + 1)
    except _Stopped as stopped:
        return Undecided(stopped.args[0])
    return NotInSubgroup(n + 1)


def _check_solvable(instance, H):
    """The entry checks shared by a single solve and a campaign."""
    if H.p != instance.p:
        raise ValueError("subgroup lives mod %d, instance mod %d"
                         % (H.p, instance.p))
    if instance.Q.is_identity():
        raise DegenerateKeyError("Q is the identity; x = 0 is not a unit")


def solve_in_subgroup(instance, H, step_cap=None, should_stop=None,
                      shared_giant=None):
    """Decide whether the hidden exponent lies in H, recovering it if so.

    Builds the giant table (n+1 multiplies), then streams the baby steps
    zeta^b * Q for b = 0, 1, ... against it and stops at the first hit
    that verifies.  A member's first verified hit has b <= n-1, so the
    search plus its verify multiply stays within theorem_budget(d).

    Returns Found / NotInSubgroup / Undecided.  `step_cap` (>= 0) bounds
    the number of scalar multiplications (the verification multiplies are
    not charged); `should_stop` is polled before every multiply for
    cooperative cancellation.  `shared_giant` is a table from
    `giant_encodings` whose cost was paid elsewhere: the solve then runs
    only the baby sweep, and `steps` and `step_cap` count baby steps only.
    """
    _check_solvable(instance, H)
    if step_cap is not None and step_cap < 0:
        raise ValueError("step cap must be >= 0, got %d" % step_cap)
    group, P, Q = instance.group, instance.P, instance.Q
    table, giant_steps = shared_giant, 0
    if table is None:
        try:
            table, giant_steps = giant_encodings(group, P, H, should_stop,
                                                 step_cap)
        except _Stopped as stopped:
            return Undecided(stopped.args[0])
    cap = None if step_cap is None else step_cap - giant_steps
    verdict = _baby_sweep(group, P, Q, group.sweep_keys(Q), H, table, 1,
                          should_stop, cap)
    return replace(verdict, steps=giant_steps + verdict.steps)
