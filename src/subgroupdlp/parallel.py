"""Randomized parallel extension of the constrained search.

One thread decides x in H at cost ~2*sqrt(d).  The campaign runs m threads
that re-randomize the key by uniform units y_i: thread i decides whether
z_i = x * y_i mod p lies in H by the baby sweep (y_i * zeta^b) * Q, read
from the one `sweep_keys(Q)` function all threads share, and a hit yields
x = z_i * y_i^{-1} mod p, accepted once x*P == Q.  The giant table depends
only on (group, P, H) and its step, so it is built once; each thread
streams its own baby sweep against it (the independent-thread collision
search of van Oorschot and Wiener, J. Cryptology 1999).  The campaign
succeeds as soon as some x * y_i falls in H -- which is what the
probability model prices.

One table serves every thread, so a campaign sizes it for the t threads
it expects to run, t = (1 - (1 - d/(p-1))^m) * (p-1)/d: B ~ sqrt(d/t)
baby keys per thread against a table of ~d/B ~ sqrt(t*d) keys, 2*sqrt(t*d)
multiplies in all instead of (t+1)*sqrt(d) for the balanced split (the
multi-target trade-off of Bernstein and Lange, "Computing small discrete
logarithms faster", INDOCRYPT 2012).  B is a function of (p, d, m) alone.

The table is `bsgs.kept_giant`'s: built on a group's first campaign with
that (P, H, B) and kept with the group object, so later campaigns charge
its cost in total_steps without building it again.

The threads run one after another in the calling process, in index
order, until the first verified hit, which wins.  So a fixed seed always
gives the same winner, x, threads_run, total_steps and per_thread_steps,
and no thread runs that the result does not account.
"""

import random
from dataclasses import dataclass, field as dataclass_field
from math import expm1, isqrt, log1p

# bench/tracing.py patches giant_encodings and solve_in_subgroup by name here
from .bsgs import (DlpInstance, Found, _baby_sweep, _check_solvable,
                   giant_encodings, kept_giant, solve_in_subgroup)
from .factoring import factor, subgroup_generator
from .field import Residue, derive_seed
from .groups import AdditiveOracleGroup

__all__ = [
    "CampaignConfig", "CampaignSuccess", "CampaignResult", "baby_keys",
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
    giant table of ceil(d/B) keys, shared by every thread and charged in
    full even when an earlier campaign on the group built it (see
    `bsgs.kept_giant`), plus each thread's baby steps (B =
    baby_keys(p, d, m), or the step cap if lower, for a thread that finds
    nothing, b+1 for the winner); it respects
    total_steps <= m * theorem_budget(d).  Threads stream their baby
    sweeps against the shared table, so each needs O(1) memory beyond it.
    The winner's verification multiply is not charged, as in a single
    solve.  Threads 0..winner (all m on a failed campaign) run, and
    per_thread_steps has one entry for each.
    """

    success: object = None
    total_steps: int = 0
    threads_run: int = 0
    per_thread_steps: list = dataclass_field(default_factory=list)

    @property
    def found(self):
        return self.success is not None


def draw_multipliers(p, m, seed):
    """The campaign's uniform unit multipliers y_1..y_m, as plain ints.

    Drawn from a dedicated stream derived from the seed, so the same
    (p, m, seed) always yields the same list.
    """
    rng = random.Random(derive_seed(seed, "multipliers", p, m))
    return [rng.randrange(1, p) for _ in range(m)]


def baby_keys(p, d, m):
    """B, the baby keys per thread of an m-thread campaign on H of order d.

    B = isqrt(floor(d/t)) + 1 for the expected number of threads run,
    t = (1 - (1 - f)^m) / f with f = d/(p-1) (a thread hits with chance f
    and the first hit ends the campaign), clamped to [1, m].  t is formed
    with expm1/log1p, so it stays near m when f is tiny instead of
    rounding to 0.
    """
    f = d / (p - 1)
    t = 1.0 if f >= 1 else -expm1(m * log1p(-f)) / f
    return isqrt(int(d / min(max(t, 1.0), m))) + 1


def randomized_solve(instance, H, config):
    """Run an m-thread campaign; the lowest-index verified hit wins.

    Returns a CampaignResult whose success is None when every thread
    reported NotInSubgroup (or hit its step cap).  Thread i is the B-key
    baby sweep of Q started at y_i against the kept giant table of step
    B; all of them read one `sweep_keys(Q)` function.
    """
    _check_solvable(instance, H)
    group, P, Q, p = instance.group, instance.P, instance.Q, instance.p
    ys = draw_multipliers(p, config.m, config.seed)
    B = baby_keys(p, H.d, config.m)
    table, setup_steps = kept_giant(group, P, H, step=B)
    key = group.sweep_keys(Q)
    result = CampaignResult(total_steps=setup_steps)
    for i, y in enumerate(ys):
        verdict = _baby_sweep(group, P, Q, key, H, table, y, B, B,
                              config.step_cap)
        result.threads_run += 1
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
    group = AdditiveOracleGroup(p)
    factored = factor(p - 1)
    H = subgroup_generator(p, d, factored=factored)
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
