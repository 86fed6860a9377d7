"""Baby-step giant-step restricted to a subgroup of the exponent group.

Setting: Q = x*P in a group of prime order p, and H is the order-d
subgroup of (Z/pZ)* generated by zeta, for some divisor d | p-1.  For a
giant step s, any x = zeta^k in H satisfies k = a*s - b mod d with
0 <= a < ceil(d/s) and 0 <= b <= s-1 (these a*s - b run through
ceil(d/s)*s >= d consecutive integers), so

    zeta^b * Q  ==  (zeta^s)^a * P     for some such a, b.

Each side is a sweep of one fixed point: the group's `sweep_keys(P)` and
`sweep_keys(Q)` run the loop and probe one key per multiple, canonical
within that group object, so a table is only read by sweeps of the group
that built it.  The solver tabulates the right side (giant steps) and
probes the left side (baby steps) with `table.get`; on a hit it recovers
x = zeta^(a*s-b mod d) and accepts it only after re-verifying x*P == Q.
The split (s and how many keys a and b) is decided in one place, `plan`:
a single solve's balanced split, or a campaign's, sized for its threads.
The baby sweep may also start at a unit y, streaming (y*zeta^b)*Q; a hit
then gives x = y^(-1)*zeta^(a*s-b): that is a campaign thread's search.
Q's sweep is prepared once per instance (`DlpInstance.sweep_q`), so every
subgroup and every thread searched for one key reads it.
The giant table, one a per key, depends only on (group, P, H, plan), so
`kept_giant` builds it once and keeps it with the group object for
campaigns and audits, whose baby sweeps then need O(1) memory each.  In
all, about 2*sqrt(d) group operations decide x in H -- with a
certificate when it is, and a sound "no" when it is not.  Membership of
x in H never requires knowing x.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from math import isqrt

from .field import Residue
from .groups import GroupElement
from .probability import success_exact

__all__ = [
    "DlpInstance", "Found", "NotInSubgroup", "Undecided",
    "DegenerateKeyError", "SearchPlan", "plan", "solve_in_subgroup",
    "theorem_budget",
]


class DegenerateKeyError(ValueError):
    """Q is the identity: x = 0 sits outside the unit group entirely."""


@dataclass(frozen=True)
class DlpInstance:
    """One discrete-log problem: find/classify x with Q = x*P.

    `p` reads the group's (prime) order, the modulus of every exponent
    statement; it is not stored, so it cannot disagree with the group.
    `sweep_q` is `group.sweep_keys(Q)`, prepared on first use and kept
    with the instance, so every baby sweep of Q reads one preparation.
    Q = O (x = 0, not a unit) raises DegenerateKeyError.
    """

    group: object
    P: GroupElement
    Q: GroupElement

    @property
    def p(self):
        return self.group.order

    @cached_property
    def sweep_q(self):
        return self.group.sweep_keys(self.Q)

    def __post_init__(self):
        if not self.group.contains(self.P) or not self.group.contains(self.Q):
            raise ValueError("P and Q must be members of the group")
        if self.P.is_identity():
            raise ValueError("P must generate the group, not be the identity")
        if self.Q.is_identity():
            raise DegenerateKeyError("Q is the identity; x = 0 is not a unit")

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


@dataclass(frozen=True)
class SearchPlan:
    """A split: giant step s, giant keys a < giant, baby keys b < baby."""

    step: int
    giant: int
    baby: int


def plan(d, p=None, m=None):
    """The split of a search in H of order d: the one place it is decided.

    A single solve (m None) is balanced: s = n = isqrt(d) + 1 and n+1 keys
    a side, so a member's first hit has b <= n-1, within theorem_budget(d).
    An m-thread campaign mod p sizes its one table for the threads it
    expects to run, t = success_exact(d, m, p)/f clamped to [1, m] (each
    hits with chance f = d/(p-1) and the first hit ends it): B baby keys
    each, B = isqrt(floor(d/t)) + 1, against ceil(d/B) giant keys, so
    2*sqrt(t*d) multiplies in all, not (t+1)*sqrt(d) (the multi-target
    trade-off of Bernstein and Lange, "Computing small discrete logarithms
    faster", INDOCRYPT 2012).  At m = 1: n baby keys against ceil(d/n).
    """
    if m is None:
        n = isqrt(d) + 1
        return SearchPlan(step=n, giant=n + 1, baby=n + 1)
    # divide by f itself: times (p-1)/d rounds B differently at some huge d
    t = success_exact(d, m, p) / (d / (p - 1))
    B = isqrt(int(d / min(max(t, 1.0), m))) + 1
    return SearchPlan(step=B, giant=-(-d // B), baby=B)


def theorem_budget(d):
    """Worst-case scalar multiplications for one constrained search."""
    return 2 * plan(d).giant  # the single plan's two sweeps are equal


def giant_encodings(group, P, H, split):
    """The giant table of (group, P, H, split): each key's least a.

    The table maps the sweep key of (zeta^s)^a * P to a, for s =
    split.step and a < split.giant (`split` is a `plan`), from keys the
    sweep probes into a list.  A key met again (zeta^s has order <= the
    last a) is one point, so all its a propose one x at each b: the table
    keeps the least, which trying them in increasing order verifies first.
    """
    keys = []
    for _ in group.sweep_keys(P)(1, pow(H.zeta.value, split.step, H.p),
                                 split.giant, keys.append):
        pass
    # zipped in reverse, so a repeated key's least a is written last
    return dict(zip(reversed(keys), range(split.giant - 1, -1, -1)))


def kept_giant(group, P, H, split):
    """`giant_encodings(group, P, H, split)`, built once per group object.

    The table is kept in the group object's own `__dict__`, keyed by
    (P, H, split), so it lives as long as the group and every campaign
    and audit on that group reads it (two plans with one step keep two
    tables); a CountingGroup keeps its own tables and never reads those
    of the group it wraps, whose keys are another group object's.
    """
    kept = vars(group).setdefault("_kept_giants", {})
    key = (P, H, split)
    if key not in kept:
        kept[key] = giant_encodings(group, P, H, split)
    return kept[key]


def _baby_sweep(instance, H, table, y, split, cap=None):
    """Stream the keys of (y * zeta^b) * Q for b < split.baby against `table`.

    `instance.sweep_q` probes the keys with `table.get`, y is a unit mod p
    and `split` the `plan` the table was built with.  A hit (a, b)
    proposes x = y^(-1) * zeta^(a*s-b), accepted only if x*P == Q, else
    the sweep goes on.  A `cap` sweeps at most `cap` keys.  Returns
    Found / NotInSubgroup / Undecided with the baby steps alone.
    """
    group, P, Q = instance.group, instance.P, instance.Q
    p, zeta, d = H.p, H.zeta.value, H.d
    swept = split.baby if cap is None else min(split.baby, cap)
    for b, a in instance.sweep_q(y, zeta, swept, table.get):
        x = pow(y, -1, p) * pow(zeta, (a * split.step - b) % d, p) % p
        # soundness gate: accept only a re-verified exponent
        if group.scalar_mul(x, P) == Q:
            return Found(x=Residue(x, p), a=a, b=b, steps=b + 1)
    return NotInSubgroup(swept) if swept == split.baby else Undecided(cap)


def _check_solvable(instance, H):
    """The entry check shared by a single solve and a campaign."""
    if H.p != instance.p:
        raise ValueError("subgroup lives mod %d, instance mod %d"
                         % (H.p, instance.p))


def solve_in_subgroup(instance, H, step_cap=None, kept=False):
    """Decide whether the hidden exponent lies in H, recovering it if so.

    Builds the giant table of the single solve's `plan(d)`, then streams
    its baby steps zeta^b * Q against it and stops at the first hit that
    verifies, within theorem_budget(d) with the verify multiply.

    Returns Found / NotInSubgroup / Undecided.  `step_cap` (>= 0) bounds
    the number of scalar multiplications (the verification multiplies are
    not charged).  With `kept` the table is `kept_giant`'s, so later solves
    of (group, P, H) run only the baby sweep; every solve charges the
    plan's giant keys in `steps` and `step_cap`, so its verdict and steps
    are a fresh solve's.  A `step_cap` below them returns Undecided before
    any multiply.
    """
    _check_solvable(instance, H)
    if step_cap is not None and step_cap < 0:
        raise ValueError("step cap must be >= 0, got %d" % step_cap)
    split = plan(H.d)
    if step_cap is not None and step_cap < split.giant:
        return Undecided(step_cap)
    build = kept_giant if kept else giant_encodings
    table = build(instance.group, instance.P, H, split)
    cap = None if step_cap is None else step_cap - split.giant
    verdict = _baby_sweep(instance, H, table, 1, split, cap=cap)
    return replace(verdict, steps=split.giant + verdict.steps)
