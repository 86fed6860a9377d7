"""Randomized multi-thread campaigns over re-randomized targets."""

import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import subgroupdlp

from subgroupdlp.bsgs import (DegenerateKeyError, DlpInstance, Found,
                              NotInSubgroup, Undecided, solve_in_subgroup,
                              theorem_budget)
from subgroupdlp.factoring import SubgroupSpec, subgroup_generator
from subgroupdlp.field import Residue
from subgroupdlp.groups import (AdditiveOracleGroup, CountingGroup,
                                CurveGroup, MultiplicativeGroup, desk_curve)
from subgroupdlp.parallel import (CampaignConfig, CampaignResult,
                                  CampaignSuccess, draw_multipliers,
                                  empirical_success_rate, randomized_solve)

G31 = AdditiveOracleGroup(31)
H5 = SubgroupSpec(d=5, zeta=Residue(2, 31))


def test_draw_multipliers_deterministic_and_in_range():
    ys = draw_multipliers(65537, 50, seed=123)
    assert ys == draw_multipliers(65537, 50, seed=123)
    assert all(1 <= y < 65537 for y in ys)
    assert ys != draw_multipliers(65537, 50, seed=124)
    # m is part of the stream's seed: another thread count draws another
    # stream, not a prefix or an extension of this one
    assert draw_multipliers(65537, 10, seed=123) != ys[:10]
    assert len(set(ys)) > 40  # collisions among 50 draws from 65536 are rare


def test_worked_example_rerandomization():
    # x = 3 is outside H = {1,2,4,8,16}, but y = 11 maps it to
    # z = 3*11 = 33 = 2 mod 31, inside H; the campaign must undo y.
    seed = next(s for s in range(5000)
                if draw_multipliers(31, 1, s)[0] == 11)
    instance = DlpInstance.from_secret(G31, 3)
    result = randomized_solve(instance, H5, CampaignConfig(m=1, seed=seed))
    assert result.found
    assert result.success == CampaignSuccess(
        x=Residue(3, 31), index=0, y=Residue(11, 31), z=Residue(2, 31))
    assert result.threads_run == 1
    # the giant table is {1: 0, 8: 1, 2: 2, 16: 3}; the thread's first baby
    # step Q_0 = 2 hits a = 2, so it charges b + 1 = 1 on top of the table
    assert result.per_thread_steps == [1]
    assert result.total_steps == 5         # shared giant 4 + thread baby 1


def test_single_worker_campaign_is_reproducible():
    instance = DlpInstance.from_secret(AdditiveOracleGroup(65537), 12345)
    H = subgroup_generator(65537, 256)
    config = CampaignConfig(m=6, seed=42)
    a = randomized_solve(instance, H, config)
    b = randomized_solve(instance, H, config)
    assert isinstance(a, CampaignResult)
    assert a == b  # field-by-field, including per-thread step lists


def test_failed_campaign_work_accounting():
    p = 65537
    group = AdditiveOracleGroup(p)
    H = subgroup_generator(p, 256)
    n_plus_1 = theorem_budget(256) // 2  # 18
    # find a seeded campaign that fails: m=2 gives ~99% failure odds per seed
    for seed in range(50):
        instance = DlpInstance.from_secret(group, 31337)
        result = randomized_solve(instance, H,
                                  CampaignConfig(m=2, seed=seed))
        if not result.found:
            break
    assert not result.found
    assert result.threads_run == 2
    # the giant sweep is paid once, then each thread pays its baby sweep
    assert result.per_thread_steps == [n_plus_1] * 2
    assert result.total_steps == 3 * n_plus_1
    assert result.total_steps <= 2 * theorem_budget(256)


def test_share_giant_does_not_change_verdicts():
    # a campaign shares one giant sweep; each thread solved on its own, with
    # its giant sweep computed, must reach the same verdicts
    p = 65537
    instance = DlpInstance.from_secret(AdditiveOracleGroup(p), 999)
    H = subgroup_generator(p, 4096)
    half = theorem_budget(4096) // 2  # n + 1 multiplies per sweep
    for seed in (0, 1, 2, 3, 11):  # seeds 0 and 11 find x
        shared = randomized_solve(instance, H, CampaignConfig(m=4, seed=seed))
        alone = []
        for y in draw_multipliers(p, 4, seed):
            Q_i = instance.group.scalar_mul(y, instance.Q)
            alone.append(solve_in_subgroup(
                DlpInstance(group=instance.group, P=instance.P, Q=Q_i),
                H))
        hits = [i for i, v in enumerate(alone) if isinstance(v, Found)]
        assert shared.found == bool(hits)
        assert shared.threads_run == (hits[0] + 1 if hits else 4)
        if hits:
            assert shared.success.index == hits[0]
            assert shared.success.z == alone[hits[0]].x
        for verdict, steps in zip(alone, shared.per_thread_steps):
            # the same baby sweep, without the giant table a lone solve
            # builds for itself: n + 1 for a miss, b + 1 for the winner
            assert verdict.steps == steps + half
            if isinstance(verdict, NotInSubgroup):
                assert steps == half
            else:
                assert steps == verdict.b + 1
        budget = shared.threads_run * theorem_budget(4096)
        assert shared.total_steps <= budget
        assert all(v.steps <= theorem_budget(4096) for v in alone)


def test_multi_worker_agrees_with_sequential():
    p = 65537
    instance = DlpInstance.from_secret(AdditiveOracleGroup(p), 777)
    H = subgroup_generator(p, 4096)
    for seed in range(8):
        seq = randomized_solve(instance, H, CampaignConfig(m=8, seed=seed))
        par = randomized_solve(instance, H,
                               CampaignConfig(m=8, seed=seed, workers=4))
        assert par == seq
        if seq.found:
            assert seq.success.x == Residue(777, p)


def test_campaign_result_is_the_same_at_any_worker_count():
    p = 20971651
    H = subgroup_generator(p, (p - 1) // 5)
    instance = DlpInstance.from_secret(AdditiveOracleGroup(p), 1234)
    expected = randomized_solve(instance, H, CampaignConfig(m=16, seed=7))
    # thread 4 is the first whose y_i * x lands in H
    assert expected.found and expected.success.index == 4
    assert expected.threads_run == 5
    assert len(expected.per_thread_steps) == 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the pool threads finely
    try:
        for workers in (1, 2, 4):
            for _ in range(5):
                got = randomized_solve(
                    instance, H, CampaignConfig(m=16, seed=7,
                                                workers=workers))
                assert got == expected, workers
    finally:
        sys.setswitchinterval(interval)


def test_step_capped_campaign_is_the_same_at_any_worker_count():
    # A cap below n + 1 = 66 baby steps leaves some member threads
    # Undecided.  Each is accounted at the cap, and neither its block of
    # worker threads nor the campaign may stop there.
    p = 65537
    H = subgroup_generator(p, 4096)
    members = H.elements()
    instance = DlpInstance.from_secret(AdditiveOracleGroup(p), 4321)
    cases = {}
    for seed in range(80):
        config = CampaignConfig(m=24, seed=seed, step_cap=33)
        result = randomized_solve(instance, H, config)
        hits = [i for i, y in enumerate(draw_multipliers(p, 24, seed))
                if 4321 * y % p in members]
        capped = hits and result.per_thread_steps[hits[0]] == 33
        if capped and result.found and result.success.index >= 5:
            cases.setdefault("capped member, later winner", config)
        elif capped and not result.found:
            cases.setdefault("capped members only", config)
    assert len(cases) == 2
    cases["cap 0"] = CampaignConfig(m=9, seed=0, step_cap=0)
    for name, config in cases.items():
        expected = randomized_solve(instance, H, config)
        if not expected.found:
            assert expected.per_thread_steps == [config.step_cap] * config.m
        for workers in (2, 4):
            got = randomized_solve(instance, H, CampaignConfig(
                m=config.m, seed=config.seed, step_cap=config.step_cap,
                workers=workers))
            assert got == expected, (name, workers)


def _pool_pids():
    return {child.pid for child in multiprocessing.active_children()}


def test_the_worker_pool_outlives_a_campaign():
    p = 65537
    instance = DlpInstance.from_secret(AdditiveOracleGroup(p), 777)
    H = subgroup_generator(p, 4096)
    randomized_solve(instance, H, CampaignConfig(m=8, seed=0, workers=2))
    first = _pool_pids()
    assert len(first) == 2
    # the same (group, P, H, workers): the same workers and giant table
    randomized_solve(instance, H, CampaignConfig(m=8, seed=1, workers=2))
    assert _pool_pids() == first
    # a new subgroup replaces the pool
    randomized_solve(instance, subgroup_generator(p, 256),
                     CampaignConfig(m=8, seed=0, workers=2))
    second = _pool_pids()
    assert len(second) == 2 and not second & first


class LockedCounter(CountingGroup):
    """A counting layer holding a lock, as a tracing layer does."""

    def __init__(self, inner):
        super().__init__(inner)
        self.lock = threading.Lock()

    def scalar_mul(self, k, e):
        with self.lock:
            return super().scalar_mul(k, e)


def test_workers_inherit_a_group_that_cannot_be_pickled():
    group = LockedCounter(AdditiveOracleGroup(65537))
    with pytest.raises(TypeError):
        pickle.dumps(group)
    instance = DlpInstance.from_secret(group, 12345)
    H = subgroup_generator(65537, 4096)
    expected = randomized_solve(instance, H, CampaignConfig(m=8, seed=1))
    group.reset()
    got = randomized_solve(instance, H,
                           CampaignConfig(m=8, seed=1, workers=2))
    assert got == expected
    # the workers' multiplies are counted too: at least the exact figure
    assert group.scalar_muls >= expected.total_steps + expected.found


def test_no_worker_outlives_the_interpreter():
    script = (
        "import multiprocessing\n"
        "from subgroupdlp import (AdditiveOracleGroup, CampaignConfig,\n"
        "                         DlpInstance, randomized_solve)\n"
        "from subgroupdlp.factoring import subgroup_generator\n"
        "instance = DlpInstance.from_secret(AdditiveOracleGroup(65537), 777)\n"
        "randomized_solve(instance, subgroup_generator(65537, 4096),\n"
        "                 CampaignConfig(m=8, seed=0, workers=2))\n"
        "print(*(c.pid for c in multiprocessing.active_children()))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(subgroupdlp.__file__).parents[1]))
    # the interpreter must exit by itself, with nothing on stderr
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_single_worker_campaign_does_only_accounted_work():
    counter = CountingGroup(AdditiveOracleGroup(65537))
    instance = DlpInstance.from_secret(counter, 12345)
    H = subgroup_generator(65537, 4096)
    for seed in range(6):
        counter.reset()
        result = randomized_solve(instance, H, CampaignConfig(m=8, seed=seed))
        # plus the winner's re-verification, which is not charged
        assert counter.scalar_muls == result.total_steps + result.found


class KeyFunctionCounter(CountingGroup):
    """A counting layer that also counts `sweep_keys` calls."""

    def __init__(self, inner):
        super().__init__(inner)
        self.key_functions = 0

    def sweep_keys(self, e):
        self.key_functions += 1
        return super().sweep_keys(e)


@pytest.mark.parametrize("m", [1, 8, 64])
def test_a_campaign_builds_two_key_functions(m):
    # one for P's giant table and one for Q, read by every thread
    counter = KeyFunctionCounter(AdditiveOracleGroup(65537))
    instance = DlpInstance.from_secret(counter, 12345)
    H = subgroup_generator(65537, 4096)
    threads = []
    for seed in range(3):
        counter.key_functions = 0
        result = randomized_solve(instance, H, CampaignConfig(m=m, seed=seed))
        assert counter.key_functions == 2, (m, seed)
        threads.append(result.threads_run)
    assert m == 1 or max(threads) > 1  # several threads read Q's keys


def test_campaign_success_internals():
    p = 65537
    group = AdditiveOracleGroup(p)
    H = subgroup_generator(p, 4096)
    members = H.elements()
    rng = random.Random(17)
    found = 0
    for t in range(40):
        x = rng.randrange(1, p)
        instance = DlpInstance.from_secret(group, x)
        result = randomized_solve(instance, H, CampaignConfig(m=4, seed=t))
        ys = draw_multipliers(p, 4, t)
        if result.found:
            found += 1
            s = result.success
            assert s.x.value == x
            assert s.index < 4 and s.y.value == ys[s.index]
            assert s.z.value == x * s.y.value % p
            assert s.z.value in members
        else:
            # the model's failure certificate: no x*y_i landed in H
            assert all(x * y % p not in members for y in ys)
    assert found >= 1  # ~0.22 per campaign; 40 seeded tries cannot all miss


def test_empirical_rate_is_one_when_subgroup_is_everything():
    assert empirical_success_rate(1009, 1008, m=3, trials=50, seed=0) == 1.0


def test_empirical_rate_grows_with_thread_count():
    lo = empirical_success_rate(65537, 256, m=1, trials=200, seed=11)
    hi = empirical_success_rate(65537, 256, m=8, trials=200, seed=11)
    # exact rates are 0.0039 and 0.0308; 200 seeded trials separate them
    assert lo < hi
    assert hi < 0.12


def test_step_cap_propagates():
    instance = DlpInstance.from_secret(AdditiveOracleGroup(65537), 31337)
    H = subgroup_generator(65537, 256)
    result = randomized_solve(
        instance, H, CampaignConfig(m=3, seed=0, step_cap=0))
    assert not result.found
    assert result.per_thread_steps == [0, 0, 0]
    # only the shared giant sweep, which the cap does not cover
    assert result.total_steps == theorem_budget(256) // 2


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(m=0)
    with pytest.raises(ValueError):
        CampaignConfig(m=1, workers=0)
    with pytest.raises(ValueError, match="step cap"):
        CampaignConfig(m=1, step_cap=-1)
    assert CampaignConfig(m=1, step_cap=0).step_cap == 0


def test_degenerate_target_raises():
    instance = DlpInstance.from_secret(G31, 0)  # Q = identity
    with pytest.raises(DegenerateKeyError):
        randomized_solve(instance, H5, CampaignConfig(m=2))


def test_modulus_mismatch_raises():
    instance = DlpInstance.from_secret(AdditiveOracleGroup(37), 5)
    with pytest.raises(ValueError):
        randomized_solve(instance, H5, CampaignConfig(m=1))


def test_campaign_on_curve_group():
    group = CurveGroup(desk_curve())
    p = group.order
    H = subgroup_generator(p, 54)  # 54 | 1998
    rng = random.Random(3)
    found = 0
    for t in range(15):
        x = rng.randrange(1, p)
        instance = DlpInstance.from_secret(group, x)
        result = randomized_solve(instance, H,
                                  CampaignConfig(m=4, seed=100 + t))
        if result.found:
            found += 1
            assert result.success.x.value == x
            assert group.scalar_mul(result.success.x.value,
                                    instance.P) == instance.Q
    assert found >= 1  # per-campaign odds ~0.10; seeds are fixed


def _constant(group, base, rows):
    for row in rows:
        row[:] = [group.generator.data] * len(row)


def _off_by_one(group, base, rows):  # row 0 gives base^(j+1): k*e is (k+1)*e
    rows[0][:] = [v * base % group.modulus for v in rows[0]]


def _shuffled(group, base, rows):
    rng = random.Random(base)
    for row in rows:
        rng.shuffle(row)


class CorruptPowerTables(MultiplicativeGroup):
    """A multiplicative group whose power rows are wrong on purpose."""

    def __init__(self, corrupt):
        super().__init__(227, 4, 113)  # 4 = 2^2 has order 113 mod 227
        self.corrupt = corrupt

    def _power_rows(self, base):
        rows = super()._power_rows(base)
        self.corrupt(self, base, rows)
        return rows


@pytest.mark.parametrize("corrupt", [_constant, _off_by_one, _shuffled],
                         ids=lambda f: f.__name__.strip("_"))
def test_a_corrupt_power_table_never_yields_a_wrong_answer(corrupt):
    # Both sweeps key through the corrupt tables, so their collisions are
    # wrong; every answer is re-verified by the plain multiply, which reads
    # no table, so none of them may be accepted.
    group = CorruptPowerTables(corrupt)
    P = group.generator
    keys = group.sweep_keys(P)
    assert [keys(k) == group.encode(group.scalar_mul(k, P))
            for k in range(1, 113)].count(False) > 50

    def correct(x, Q):
        return pow(P.data, x.value, 227) == Q.data

    for d in (7, 16, 56):
        H = subgroup_generator(113, d)
        for x in range(1, 113):
            instance = DlpInstance.from_secret(group, x)
            verdict = solve_in_subgroup(instance, H)
            assert isinstance(verdict, (Found, NotInSubgroup, Undecided))
            if isinstance(verdict, Found):
                assert correct(verdict.x, instance.Q), (d, x)
        for seed in range(4):
            instance = DlpInstance.from_secret(group, 5 + 17 * seed)
            result = randomized_solve(instance, H,
                                      CampaignConfig(m=4, seed=seed))
            assert result.success is None or correct(result.success.x,
                                                     instance.Q)
