"""Randomized parallel extension of the constrained search.

One thread decides x in H at cost ~2*sqrt(d).  The campaign runs m threads
against independently re-randomized targets Q_i = y_i * Q for uniform units
y_i: thread i solves for z_i = x * y_i mod p, and any thread that lands in
H yields x = z_i * y_i^{-1} mod p.  The giant table depends only on
(group, P, H), so it is built once; each thread streams its own baby sweep
against it (the independent-thread collision search of van Oorschot and
Wiener, J. Cryptology 1999).  Per-thread work never exceeds the
single-search budget, and the campaign succeeds as soon as some x * y_i
falls in H -- which is what the probability model prices.

Worker count is an execution detail.  Threads are accounted in index
order and the lowest-index verified hit wins; once it is taken, a shared
stop flag cancels the threads above it, which are left out of the
accounting.  So a fixed seed gives the same winner, x, threads_run,
total_steps and per_thread_steps at any worker count.
"""

import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field

from .bsgs import (DlpInstance, Found, _check_solvable, giant_encodings,
                   solve_in_subgroup)
from .factoring import factor, find_primitive_root, subgroup_generator
from .field import Residue, derive_seed
from .groups import AdditiveOracleGroup

__all__ = [
    "CampaignConfig", "CampaignSuccess", "CampaignResult",
    "draw_multipliers", "randomized_solve", "empirical_success_rate",
]


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: m threads, OS-level parallelism, seeding, step cap.

    `workers` sets how many threads run at once and nothing else; the
    result does not depend on it.  `step_cap` bounds each thread's search.
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
    """The winning thread: x = z * y^(-1) mod p, re-verified against Q."""

    x: Residue
    index: int
    y: Residue
    z: Residue


@dataclass
class CampaignResult:
    """Outcome plus work accounting for a whole campaign.

    total_steps counts constrained-search scalar multiplications: the
    giant table, built once and shared by every thread, plus each
    accounted thread's baby steps (n+1 for a thread that finds nothing,
    b+1 for the winner); it respects total_steps <= m * theorem_budget(d).
    Threads stream their baby sweeps against the shared table, so each
    needs O(1) memory beyond it.  The re-randomization multiplies
    Q_i = y_i*Q of the accounted threads and the final verification are
    tallied in overhead_muls.  Threads 0..winner (all m on a failed
    campaign) are accounted, and per_thread_steps has one entry for each.
    """

    success: object = None
    total_steps: int = 0
    overhead_muls: int = 0
    threads_run: int = 0
    per_thread_steps: list = dataclass_field(default_factory=list)

    @property
    def found(self):
        return self.success is not None


def draw_multipliers(p, m, seed):
    """The campaign's uniform unit multipliers y_1..y_m, as plain ints.

    Drawn from a dedicated stream derived from the seed, so the same
    (p, m, seed) always yields the same list regardless of worker count.
    """
    rng = random.Random(derive_seed(seed, "multipliers", p, m))
    return [rng.randrange(1, p) for _ in range(m)]


def _recover(instance, y, z):
    p = instance.p
    x = Residue(pow(y, -1, p) * z.value % p, p)
    if instance.group.scalar_mul(x.value, instance.P) != instance.Q:
        raise AssertionError("verified thread result failed final check")
    return x


def randomized_solve(instance, H, config):
    """Run an m-thread campaign; the lowest-index verified hit wins.

    Returns a CampaignResult whose success is None when every thread
    reported NotInSubgroup (or hit its step cap).  Verdicts are taken in
    thread-index order, so the result is the same at any worker count.
    """
    _check_solvable(instance, H)
    group = instance.group
    ys = draw_multipliers(instance.p, config.m, config.seed)
    shared, setup_steps = giant_encodings(group, instance.P, H)
    result = CampaignResult(total_steps=setup_steps)
    stop = threading.Event()

    def run_thread(i):
        Q_i = group.scalar_mul(ys[i], instance.Q)
        sub = DlpInstance(group=group, P=instance.P, Q=Q_i)
        return solve_in_subgroup(sub, H, step_cap=config.step_cap,
                                 should_stop=stop.is_set,
                                 shared_giant=shared)

    # Threads i+1 .. i+workers-1 run ahead in the pool while thread i is
    # taken: from the pool if it was handed there, else run right here.  So
    # at most `workers` threads are in flight, workers=1 never leaves the
    # calling thread, and a hit at index i cancels only threads above i,
    # which are never accounted.
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        ahead, started = {}, 0
        try:
            for i in range(config.m):
                started = max(started, i + 1)
                while started < min(i + config.workers, config.m):
                    ahead[started] = pool.submit(run_thread, started)
                    started += 1
                future = ahead.pop(i, None)
                verdict = run_thread(i) if future is None else future.result()
                result.threads_run += 1
                result.overhead_muls += 1  # forming Q_i
                result.total_steps += verdict.steps
                result.per_thread_steps.append(verdict.steps)
                if isinstance(verdict, Found):
                    result.overhead_muls += 1  # final verification
                    result.success = CampaignSuccess(
                        x=_recover(instance, ys[i], verdict.x),
                        index=i, y=Residue(ys[i], instance.p), z=verdict.x)
                    break
        finally:
            stop.set()  # threads still in flight give up at their next poll
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
