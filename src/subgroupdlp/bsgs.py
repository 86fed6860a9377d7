"""Baby-step giant-step restricted to a subgroup of the exponent group.

Setting: Q = x*P in a group of prime order p, and H is the order-d
subgroup of (Z/pZ)* generated by zeta, for some divisor d | p-1.  Writing
n = isqrt(d) + 1, any x = zeta^k in H satisfies k = a*n - b with
0 <= a, b <= n, so

    zeta^b * Q  ==  (zeta^n)^a * P     for some a, b in [0, n].

The solver tabulates the left side (baby steps), sweeps the right side
(giant steps), and on a table hit recovers x = zeta^(a*n-b mod d).  Both
phases cost at most n+1 scalar multiplications each, i.e. about 2*sqrt(d)
group operations to decide x in H -- with a certificate when it is, and a
sound "no" when it is not.  Membership of x in H never requires knowing x.
"""

from dataclasses import dataclass
from math import isqrt

from .field import Residue
from .groups import GroupElement

__all__ = [
    "DlpInstance", "Found", "NotInSubgroup", "Undecided",
    "DegenerateKeyError", "solve_in_subgroup", "membership_only",
    "giant_encodings", "theorem_budget",
]


class DegenerateKeyError(ValueError):
    """Q is the identity: x = 0 sits outside the unit group entirely."""


@dataclass(frozen=True)
class DlpInstance:
    """One discrete-log problem: find/classify x with Q = x*P.

    p is the (prime) group order; it is carried explicitly because every
    exponent statement is mod p.
    """

    group: object
    P: GroupElement
    Q: GroupElement
    p: int

    def __post_init__(self):
        if self.p != self.group.order:
            raise ValueError("instance p != group order")
        if not self.group.contains(self.P) or not self.group.contains(self.Q):
            raise ValueError("P and Q must be members of the group")
        if self.P.is_identity():
            raise ValueError("P must generate the group, not be the identity")

    @classmethod
    def from_secret(cls, group, x, base=None):
        """Build an instance with a known exponent (testing/demo helper)."""
        P = base if base is not None else group.generator
        return cls(group=group, P=P, Q=group.scalar_mul(x, P), p=group.order)


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
    """A sweep was cut short by cancellation or by the step cap."""


def _sweep(group, base, ratio, n, p, should_stop=None, cap=None):
    """Encodings of ratio^i * base for i = 0..n, one scalar multiply each.

    Every multiply is by the same point, so the group prepares it once
    (`fixed_base`).  Before each multiply it polls `should_stop` and then
    checks that fewer than `cap` multiplies are done; either stop raises
    _Stopped.
    """
    base = group.fixed_base(base)
    t = 1
    for i in range(n + 1):
        if should_stop is not None and should_stop():
            raise _Stopped
        if cap is not None and i >= cap:
            raise _Stopped
        yield group.encode(group.scalar_mul(t, base))
        t = t * ratio % p


def giant_encodings(group, P, H):
    """Encodings of (zeta^n)^a * P for a = 0..n, plus the step count.

    The giant sweep depends only on (group, P, H), so parallel campaigns
    against re-randomized Q's can compute it once and share it.
    """
    n = isqrt(H.d) + 1
    return list(_sweep(group, P, pow(H.zeta.value, n, H.p), n, H.p)), n + 1


def solve_in_subgroup(instance, H, step_cap=None, should_stop=None,
                      shared_giant=None):
    """Decide whether the hidden exponent lies in H, recovering it if so.

    Returns Found / NotInSubgroup / Undecided.  `step_cap` bounds the
    number of scalar multiplications (the final verification multiply is
    not charged); `should_stop` is polled between steps for cooperative
    cancellation; `shared_giant` supplies precomputed giant encodings whose
    cost was paid elsewhere, so only `should_stop` is polled while they
    are scanned.
    """
    if H.p != instance.p:
        raise ValueError("subgroup lives mod %d, instance mod %d"
                         % (H.p, instance.p))
    if instance.Q.is_identity():
        raise DegenerateKeyError("Q is the identity; x = 0 is not a unit")
    group = instance.group
    p = instance.p
    zeta = H.zeta.value
    d = H.d
    n = isqrt(d) + 1
    steps = 0
    try:
        # baby steps: zeta^b * Q, keyed by encoding, first b wins
        table = {}
        for b, key in enumerate(_sweep(group, instance.Q, zeta, n, p,
                                       should_stop, step_cap)):
            table.setdefault(key, b)
            steps += 1

        # giant steps: (zeta^n)^a * P, scanned in increasing a
        if shared_giant is None:
            giant = _sweep(group, instance.P, pow(zeta, n, p), n, p,
                           should_stop,
                           None if step_cap is None else step_cap - steps)
        else:
            giant = shared_giant
        for a, key in enumerate(giant):
            if shared_giant is None:
                steps += 1
            elif should_stop is not None and should_stop():
                return Undecided(steps)
            b = table.get(key)
            if b is not None:
                x = pow(zeta, (a * n - b) % d, p)
                # soundness gate: accept only a re-verified exponent
                if group.scalar_mul(x, instance.P) == instance.Q:
                    return Found(x=Residue(x, p), a=a, b=b, steps=steps)
    except _Stopped:
        return Undecided(steps)
    return NotInSubgroup(steps)


def membership_only(instance, H):
    """True iff the hidden exponent is in H (full-budget run, no cap)."""
    return isinstance(solve_in_subgroup(instance, H), Found)
