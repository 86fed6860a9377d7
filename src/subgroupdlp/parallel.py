"""Randomized parallel extension of the constrained search.

One thread decides x in H at cost ~2*sqrt(d).  The campaign runs m threads
that re-randomize the key by uniform units y_i: thread i decides whether
z_i = x * y_i mod p lies in H by the baby sweep (y_i * zeta^b) * Q, run
by the instance's one prepared sweep of Q (`sweep_q`), and a hit yields
x = z_i * y_i^{-1} mod p, accepted once x*P == Q.  Each thread streams
its own baby sweep against one giant table (the independent-thread
collision search of van Oorschot and Wiener, J. Cryptology 1999), so the
split -- B baby keys per thread against the table -- is the campaign case
of `bsgs.plan(d, p, m)`, sized for the threads the campaign expects to
run.  The table is `bsgs.kept_giant`'s: built on a group's first campaign
and kept with the group object, so later campaigns charge its keys in
total_steps without building it again.  The campaign succeeds as soon as
some x * y_i falls in H -- which is what the probability model prices.

Thread i asks only whether y_i lies in the coset x^(-1) * H, so y_i
matters only through its coset of H, keyed by y_i^d mod p (H is the kernel
of y -> y^d).  A thread whose coset an earlier thread swept in full (all
B keys, a sound NotInSubgroup) runs no sweep and is charged 0 steps; a
capped (Undecided) sweep proves nothing and marks no coset.  The saving
needs m of order (p-1)/d or more: with n = (p-1)/d cosets a campaign
repeats about m^2/(2n) of them.

The threads run one after another in the calling process, in index
order, until the first verified hit, which wins.  So a fixed seed always
gives the same winner, x, threads_run, total_steps and per_thread_steps,
and no thread runs that the result does not account.
"""

import random
from dataclasses import dataclass, field as dataclass_field

# bench/tracing.py reads and wraps giant_encodings and solve_in_subgroup here
from .bsgs import (DlpInstance, Found, NotInSubgroup, _baby_sweep,
                   _check_solvable, giant_encodings, kept_giant, plan,
                   solve_in_subgroup)
from .catalog import record_from_order
from .field import Residue, derive_seed

__all__ = [
    "CampaignConfig", "CampaignSuccess", "CampaignResult",
    "draw_multipliers", "randomized_solve", "empirical_success_rate",
]


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: m threads, seeding, step cap.

    `step_cap` bounds each thread's search.  `workers` (>= 1) changes
    neither the result nor the execution: every campaign runs its threads
    in the calling process.  It is kept because the benchmark's workloads
    still pass it.
    """

    m: int
    workers: int = 1
    seed: int = 0
    step_cap: int = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("a campaign needs at least one thread (m >= 1)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.step_cap is not None and self.step_cap < 0:
            raise ValueError("step cap must be >= 0, got %d" % self.step_cap)


@dataclass(frozen=True)
class CampaignSuccess:
    """The winning thread: z = x * y mod p lies in H; x*P == Q was verified."""

    x: Residue
    index: int
    y: Residue
    z: Residue


@dataclass
class CampaignResult:
    """Outcome plus work accounting for a whole campaign.

    total_steps counts constrained-search scalar multiplications: the
    giant keys of `plan`, the campaign's `bsgs.plan(d, p, m)`, whose one
    table every thread shares, charged in full even when an earlier
    campaign on the group built it (see `bsgs.kept_giant`), plus each
    thread's baby steps (all of the plan's baby keys, or the step cap if
    lower, for a thread that finds nothing, b+1 for the winner, 0 for a
    thread whose coset of H an earlier thread swept in full and ran no
    sweep); it respects total_steps <= m * theorem_budget(d).  The
    winner's verification multiply is not charged, as in a single solve.
    Threads 0..winner (all m on a failed campaign) run, each with one
    per_thread_steps entry, which threads_run counts.
    """

    success: object = None
    total_steps: int = 0
    per_thread_steps: list = dataclass_field(default_factory=list)
    plan: object = None

    @property
    def found(self):
        return self.success is not None

    @property
    def threads_run(self):
        return len(self.per_thread_steps)


def _multipliers(p, m, seed):
    """The campaign's uniform unit multipliers y_1..y_m, as plain ints, each
    drawn when it is asked for from a dedicated stream derived from the
    seed, so the same (p, m, seed) always yields the same sequence."""
    rng = random.Random(derive_seed(seed, "multipliers", p, m))
    return (rng.randrange(1, p) for _ in range(m))


def draw_multipliers(p, m, seed):
    """All m multipliers as a list; `randomized_solve` draws them lazily."""
    return list(_multipliers(p, m, seed))


def randomized_solve(instance, H, config):
    """Run an m-thread campaign; the lowest-index verified hit wins.

    Returns a CampaignResult whose success is None when every thread
    reported NotInSubgroup (or hit its step cap).  Thread i is the baby
    sweep of Q started at y_i against the kept giant table, both of the
    campaign's `plan`; all of them run the instance's one prepared sweep
    of Q.  A thread whose coset y_i^d an earlier thread swept in full is
    settled as a 0-step miss without sweeping.  y_i is drawn when thread i
    starts, so a campaign draws threads_run multipliers, not m.
    """
    _check_solvable(instance, H)
    p = instance.p
    ys = _multipliers(p, config.m, config.seed)
    split = plan(H.d, p, config.m)
    table = kept_giant(instance.group, instance.P, H, split)
    result = CampaignResult(total_steps=split.giant, plan=split)
    swept = set()  # y^d of every thread that swept all its keys and missed
    for i, y in enumerate(ys):
        coset = pow(y, H.d, p)  # y's coset of H, the kernel of y -> y^d
        if coset in swept:
            verdict = NotInSubgroup(0)
        else:
            verdict = _baby_sweep(instance, H, table, y, split,
                                  config.step_cap)
            if isinstance(verdict, NotInSubgroup):
                swept.add(coset)
        result.total_steps += verdict.steps
        result.per_thread_steps.append(verdict.steps)
        if isinstance(verdict, Found):
            result.success = CampaignSuccess(
                x=verdict.x, index=i, y=Residue(y, p),
                z=Residue(verdict.x.value * y % p, p))
            break
    return result


def empirical_success_rate(p, d, m, trials, seed):
    """Fraction of seeded campaigns that recover a uniform random exponent.

    Runs `trials` independent campaigns on the transparent oracle group
    mod p with fresh x and fresh multipliers each time; the observed rate
    estimates the collision probability that the model predicts.
    """
    if trials < 1:
        raise ValueError("a success rate needs at least one trial "
                         "(trials >= 1)")
    record = record_from_order(p)
    group, H = record.oracle_group, record.subgroup(d)
    key_rng = random.Random(derive_seed(seed, "keys", p, d, m))
    hits = 0
    for t in range(trials):
        x = key_rng.randrange(1, p)
        instance = DlpInstance.from_secret(group, x)
        config = CampaignConfig(m=m, seed=derive_seed(seed, "campaign", t))
        outcome = randomized_solve(instance, H, config)
        if outcome.found:
            if outcome.success.x.value != x:
                raise AssertionError("campaign recovered a wrong exponent")
            hits += 1
    return hits / trials
