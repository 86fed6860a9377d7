"""Randomized parallel extension of the constrained search.

One thread decides x in H at cost ~2*sqrt(d).  The campaign runs m threads
that re-randomize the key by uniform units y_i: thread i decides whether
z_i = x * y_i mod p lies in H by the baby sweep (y_i * zeta^b) * Q, read
from the one `sweep_keys(Q)` function all threads share, and a hit yields
x = z_i * y_i^{-1} mod p, accepted once x*P == Q.  The giant table depends
only on (group, P, H), so it is built once; each thread streams its own
baby sweep against it (the independent-thread collision search of van
Oorschot and Wiener, J. Cryptology 1999).  Per-thread work never exceeds
the single-search budget, and the campaign succeeds as soon as some
x * y_i falls in H -- which is what the probability model prices.

Worker count is an execution detail.  At workers = 1 the threads run one
after another in the calling process.  At workers > 1 they run in that
many worker processes, BLOCK threads per task.  The pool outlives a
campaign: it is kept for one (group, P, H, workers), and the parent builds
that key's giant table just before it forks the workers, so they inherit
the table and the group instead of receiving pickled copies.  This needs
the "fork" start method (Linux, macOS; not Windows).  Threads are
accounted in index order and the lowest-index verified hit wins; once it
is taken, a shared stop flag cancels the blocks still out, which are left
out of the accounting.  So a fixed seed gives the same winner, x,
threads_run, total_steps and per_thread_steps at any worker count.
"""

import atexit
import random
import threading
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from functools import partial

# bench/tracing.py patches giant_encodings and solve_in_subgroup by name here
from .bsgs import (DlpInstance, Found, _baby_sweep, _check_solvable,
                   giant_encodings, solve_in_subgroup)
from .factoring import factor, subgroup_generator
from .field import Residue, derive_seed
from .groups import AdditiveOracleGroup, CountingGroup, GroupElement

__all__ = [
    "CampaignConfig", "CampaignSuccess", "CampaignResult",
    "draw_multipliers", "randomized_solve", "empirical_success_rate",
]


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: m threads, worker processes, seeding, step cap.

    `workers` sets how many processes run threads at once and nothing
    else; the result does not depend on it.  `step_cap` bounds each
    thread's search.
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
    giant table, built once and shared by every thread, plus each
    accounted thread's baby steps (n+1 for a thread that finds nothing,
    b+1 for the winner); it respects total_steps <= m * theorem_budget(d).
    Threads stream their baby sweeps against the shared table, so each
    needs O(1) memory beyond it.  The winner's verification multiply is
    not charged, as in a single solve.  Threads 0..winner (all m on a
    failed campaign) are accounted, and per_thread_steps has one entry
    for each.
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
    (p, m, seed) always yields the same list regardless of worker count.
    """
    rng = random.Random(derive_seed(seed, "multipliers", p, m))
    return [rng.randrange(1, p) for _ in range(m)]


def _threads(group, P, Q, H, table, pairs, step_cap, should_stop):
    """Yield (i, verdict) for the campaign threads (i, y_i) in `pairs`.

    Thread i is the baby sweep of Q started at y_i against the giant
    `table`; all of them read one `sweep_keys(Q)` function.  The loop ends
    after the first Found or once should_stop(), if given.
    """
    key = group.sweep_keys(Q)
    for i, y in pairs:
        if should_stop is not None and should_stop():
            return
        verdict = _baby_sweep(group, P, Q, key, H, table, y, should_stop,
                              step_cap)
        yield i, verdict
        if isinstance(verdict, Found):
            return


def _op_counts(group):
    if isinstance(group, CountingGroup):
        return group.scalar_muls, group.adds
    return 0, 0


# -- worker processes ----------------------------------------------------------

BLOCK = 4  # campaign threads per worker task

_inherited = None  # in a worker: (group, P, H, giant table, should_stop)


def _inherit(group, P, H, table, flag):
    """Worker initializer; the fork hands these over without pickling."""
    global _inherited
    _inherited = group, P, H, table, partial(flag.__getitem__, 0)


def _run_block(q_data, block, step_cap):
    """Run a block of (i, y_i) threads in a worker.

    Returns the (i, verdict) pairs in index order and the (scalar_mul,
    add) counts the worker's copy of a CountingGroup gained.  The block
    stops after its own Found, or when the parent sets the stop flag.
    """
    group, P, H, table, should_stop = _inherited
    before = _op_counts(group)
    verdicts = list(_threads(group, P, GroupElement(P.group, q_data), H,
                             table, block, step_cap, should_stop))
    after = _op_counts(group)
    return verdicts, (after[0] - before[0], after[1] - before[1])


class _Pool:
    """Forked workers holding one (group, P, H) and its giant table.

    The table is built here, just before the fork, so the workers inherit
    it with the group and a one-byte shared stop flag.  The pool machinery
    is imported on first use, so a process that never runs a campaign at
    workers > 1 never loads it.
    """

    def __init__(self, group, P, H, workers):
        import mmap
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        self.group, self.P, self.H, self.workers = group, P, H, workers
        self.table, self.setup_steps = giant_encodings(group, P, H)
        self.flag = mmap.mmap(-1, 1)
        self.executor = ProcessPoolExecutor(
            workers, mp_context=get_context("fork"), initializer=_inherit,
            initargs=(group, P, H, self.table, self.flag))

    def serves(self, group, P, H, workers):
        return (group is self.group and workers == self.workers
                and P == self.P and H == self.H)

    def verdicts(self, Q, ys, step_cap):
        """Yield (i, verdict) for i = 0, 1, ..., workers + 1 blocks in flight.

        Closing the generator stops and drains the blocks still out, and
        adds the work they did to a CountingGroup.
        """
        from concurrent.futures import wait
        group = self.group
        pairs = list(enumerate(ys))
        ahead = deque()

        def take(future):
            verdicts, ops = future.result()
            if isinstance(group, CountingGroup):
                group.scalar_muls += ops[0]
                group.adds += ops[1]
            return verdicts

        try:
            for start in range(0, len(pairs), BLOCK):
                ahead.append(self.executor.submit(
                    _run_block, Q.data, pairs[start:start + BLOCK], step_cap))
                if len(ahead) > self.workers:
                    yield from take(ahead.popleft())
            while ahead:
                yield from take(ahead.popleft())
        finally:
            self.flag[0] = 1  # blocks still out stop at their next poll
            for future in ahead:
                future.cancel()
            wait(ahead)
            for future in ahead:
                if not future.cancelled() and future.exception() is None:
                    take(future)
            self.flag[0] = 0

    def close(self):
        self.executor.shutdown(wait=True, cancel_futures=True)
        self.flag.close()


_pool = None
_pool_lock = threading.Lock()  # one pooled campaign at a time


def _close_pool():
    global _pool
    if _pool is not None:
        pool, _pool = _pool, None
        pool.close()


# while the interpreter can still run the pool's shutdown code
atexit.register(_close_pool)


def _pooled(instance, H, ys, config):
    """The campaign on the worker pool kept for (group, P, H, workers)."""
    global _pool
    group, P = instance.group, instance.P
    with _pool_lock:
        if _pool is None or not _pool.serves(group, P, H, config.workers):
            _close_pool()
            _pool = _Pool(group, P, H, config.workers)
        try:
            return _account(instance, ys, _pool.setup_steps,
                            _pool.verdicts(instance.Q, ys, config.step_cap))
        except BaseException:  # a broken or interrupted pool is not reused
            _close_pool()
            raise


def _account(instance, ys, setup_steps, verdicts):
    """Take (i, verdict) pairs in index order until the first Found."""
    result = CampaignResult(total_steps=setup_steps)
    try:
        for i, verdict in verdicts:
            if i != result.threads_run:
                raise AssertionError("thread %d reported out of order" % i)
            result.threads_run += 1
            result.total_steps += verdict.steps
            result.per_thread_steps.append(verdict.steps)
            if isinstance(verdict, Found):
                y, p = ys[i], instance.p
                result.success = CampaignSuccess(
                    x=verdict.x, index=i, y=Residue(y, p),
                    z=Residue(verdict.x.value * y % p, p))
                break
    finally:
        verdicts.close()
    return result


def randomized_solve(instance, H, config):
    """Run an m-thread campaign; the lowest-index verified hit wins.

    Returns a CampaignResult whose success is None when every thread
    reported NotInSubgroup (or hit its step cap).  Verdicts are taken in
    thread-index order, so the result is the same at any worker count.
    """
    _check_solvable(instance, H)
    ys = draw_multipliers(instance.p, config.m, config.seed)
    if config.workers > 1:
        return _pooled(instance, H, ys, config)
    group, P = instance.group, instance.P
    table, setup_steps = giant_encodings(group, P, H)
    return _account(instance, ys, setup_steps, _threads(
        group, P, instance.Q, H, table, enumerate(ys), config.step_cap, None))


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
