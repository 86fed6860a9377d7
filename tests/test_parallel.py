"""Randomized multi-thread campaigns over re-randomized targets."""

import multiprocessing
import random
from math import isqrt

import pytest

from subgroupdlp.bsgs import (DegenerateKeyError, DlpInstance, Found,
                              NotInSubgroup, Undecided, solve_in_subgroup,
                              theorem_budget)
from subgroupdlp.catalog import load_builtin
from subgroupdlp.factoring import SubgroupSpec, subgroup_generator
from subgroupdlp.field import Residue
from subgroupdlp.groups import (AdditiveOracleGroup, CountingGroup,
                                CurveGroup, MultiplicativeGroup, desk_curve)
from subgroupdlp.parallel import (CampaignConfig, CampaignResult,
                                  CampaignSuccess, baby_keys,
                                  draw_multipliers, empirical_success_rate,
                                  randomized_solve)

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
    # one thread: B = isqrt(5) + 1 = 3 baby keys against the giant table
    # of step 3, a = 0..ceil(5/3) - 1, which is {1: 0, 8: 1}; the thread's
    # baby keys y*zeta^b*Q are 2, 4, 8, so b = 2 hits a = 1 and the thread
    # charges b + 1 = 3 on top
    assert baby_keys(31, 5, 1) == 3
    assert result.per_thread_steps == [3]
    assert result.total_steps == 5         # shared giant 2 + thread baby 3


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
    # t = 256 * (1 - (255/256)^2) ~ 1.996 expected threads: B = isqrt(128)
    # + 1 = 12 baby keys against a giant table of ceil(256/12) = 22
    B = baby_keys(p, 256, 2)
    assert B == 12
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
    assert result.per_thread_steps == [B] * 2
    assert result.total_steps == 22 + 2 * B == 46
    assert result.total_steps <= 2 * theorem_budget(256)


def test_share_giant_does_not_change_verdicts():
    # a campaign shares one giant sweep, sized for its threads; each thread
    # solved on its own, with the balanced split, must reach the same
    # verdict class and, for the winner, the same z
    p = 65537
    instance = DlpInstance.from_secret(AdditiveOracleGroup(p), 999)
    H = subgroup_generator(p, 4096)
    B = baby_keys(p, 4096, 4)
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
            # B baby keys for a miss, at most B for the winner
            if isinstance(verdict, NotInSubgroup):
                assert steps == B
            else:
                assert 1 <= steps <= B
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
    for workers in (1, 2, 4):
        got = randomized_solve(instance, H, CampaignConfig(m=16, seed=7,
                                                           workers=workers))
        assert got == expected, workers


def test_step_capped_campaign_is_the_same_at_any_worker_count():
    # A cap below the B = 19 baby keys of a 24-thread campaign leaves some
    # member threads Undecided.  Each is accounted at the cap, and the
    # campaign may not stop there.
    p = 65537
    H = subgroup_generator(p, 4096)
    members = H.elements()
    instance = DlpInstance.from_secret(AdditiveOracleGroup(p), 4321)
    assert baby_keys(p, 4096, 24) == 19
    cases = {}
    for seed in range(80):
        config = CampaignConfig(m=24, seed=seed, step_cap=10)
        result = randomized_solve(instance, H, config)
        hits = [i for i, y in enumerate(draw_multipliers(p, 24, seed))
                if 4321 * y % p in members]
        capped = hits and result.per_thread_steps[hits[0]] == 10
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


def test_baby_keys_follow_the_expected_thread_count():
    # campaign-mult's split: t ~ 31.6 of 64 threads, B = isqrt(8300) + 1
    assert baby_keys(39 * 2**18 + 1, 2**18, 64) == 92
    assert baby_keys(65537, 4096, 8) == 26   # the README example
    # one thread, or a subgroup that holds every unit: t = 1, the
    # balanced n = isqrt(d) + 1
    assert baby_keys(65537, 4096, 1) == 65
    assert baby_keys(1999, 1998, 64) == isqrt(1998) + 1
    # t never exceeds m or (p-1)/d, and B never falls below 1
    assert baby_keys(1999, 1, 64) == 1
    assert baby_keys(65537, 256, 10**6) == isqrt(256 // 256) + 1


def test_campaign_on_p256_order_with_a_tiny_subgroup():
    # d/(p-1) ~ 2^-254.4: 1 - (1 - d/(p-1))^m rounds to 0.0 in floats, so
    # t must come from expm1/log1p, or floor(d/t) divides by zero
    record = load_builtin("P-256")
    p = record.p
    assert 1 - (1 - 3 / (p - 1)) ** 64 == 0.0
    assert baby_keys(p, 3, 64) == 1
    H = subgroup_generator(p, 3, generator=record.primitive_root)
    group = AdditiveOracleGroup(p)
    ys = draw_multipliers(p, 64, 5)
    x = H.zeta.value * pow(ys[40], -1, p) % p  # thread 40 maps x into H
    for workers in (1, 2):
        result = randomized_solve(DlpInstance.from_secret(group, x), H,
                                  CampaignConfig(m=64, seed=5,
                                                 workers=workers))
        assert result.found and result.success.x.value == x
        assert result.success.index == 40 and result.threads_run == 41
        # a giant table of a = 0..2, then one baby key per thread
        assert result.per_thread_steps == [1] * 41
        assert result.total_steps == 3 + 41


def _campaign_groups():
    """One order-1999 group per backend (1998 = 2 * 3^3 * 37)."""
    return (AdditiveOracleGroup(1999), MultiplicativeGroup(19991, 15261, 1999),
            CurveGroup(desk_curve()))


@pytest.mark.parametrize("group", _campaign_groups(),
                         ids=("oracle", "multiplicative", "curve"))
def test_campaign_split_invariants(group):
    # For every split the winner is the lowest thread whose y_i * x lies
    # in H, every earlier thread is a sound miss, and the work stays
    # within m single-solve budgets, at workers 1 and 2 alike.
    p = group.order
    rng = random.Random(p)
    for d in (1, 54, p - 1):
        H = subgroup_generator(p, d)
        for m in (1, 2, 64):
            for seed in range(4):
                x = rng.randrange(1, p)
                if seed >= 2:  # plant zeta^k on the middle thread: k in
                    # the giant table's last step, then any k
                    k = (d - baby_keys(p, d, m) if seed == 2
                         else rng.randrange(d)) % d
                    y = draw_multipliers(p, m, seed)[m // 2]
                    x = pow(H.zeta.value, k, p) * pow(y, -1, p) % p
                instance = DlpInstance.from_secret(group, x)
                config = CampaignConfig(m=m, seed=seed)
                result = randomized_solve(instance, H, config)
                ys = draw_multipliers(p, m, seed)
                hits = [i for i, y in enumerate(ys)
                        if pow(x * y % p, d, p) == 1]
                assert result.found == bool(hits)
                assert result.threads_run == (hits[0] + 1 if hits else m)
                assert result.total_steps <= m * theorem_budget(d)
                if hits:
                    assert result.success == CampaignSuccess(
                        x=Residue(x, p), index=hits[0],
                        y=Residue(ys[hits[0]], p),
                        z=Residue(x * ys[hits[0]] % p, p))
                for i in range(result.threads_run):
                    alone = solve_in_subgroup(DlpInstance(
                        group=group, P=instance.P,
                        Q=group.scalar_mul(ys[i], instance.Q)), H)
                    winner = result.found and i == result.success.index
                    assert isinstance(alone, Found if winner
                                      else NotInSubgroup)
                    if winner:
                        assert alone.x == result.success.z
                got = randomized_solve(instance, H, CampaignConfig(
                    m=m, seed=seed, workers=2))
                assert got == result, (d, m, seed)


@pytest.mark.parametrize("group", _campaign_groups(),
                         ids=("oracle", "multiplicative", "curve"))
def test_a_table_whose_step_divides_d_covers_every_member(group):
    # d = 54 and m = 8: B = 3 divides d, so the giant table a = 0..17 ends
    # at k = 51 and k = d - 1 is reached only by wrapping below 0 (a = 0,
    # b = 1).  Thread 0 is planted on zeta^k for every k: its first hit is
    # b = -k mod B, on any worker count.
    p, d, m = group.order, 54, 8
    B = baby_keys(p, d, m)
    assert B == 3 and d % B == 0
    H = subgroup_generator(p, d)
    y = draw_multipliers(p, m, 0)[0]
    for k in range(d):
        x = pow(H.zeta.value, k, p) * pow(y, -1, p) % p
        instance = DlpInstance.from_secret(group, x)
        result = randomized_solve(instance, H, CampaignConfig(m=m, seed=0))
        assert result.found and result.success.index == 0, k
        assert result.success.x == Residue(x, p)
        assert result.per_thread_steps == [-k % B + 1], k
        assert result.total_steps == d // B + (-k % B) + 1
        if k == d - 1:
            assert result.per_thread_steps == [2]
            assert randomized_solve(instance, H, CampaignConfig(
                m=m, seed=0, workers=2)) == result


def test_campaigns_on_one_group_build_its_table_once():
    counter = CountingGroup(AdditiveOracleGroup(65537))
    instance = DlpInstance.from_secret(counter, 12345)
    H = subgroup_generator(65537, 4096)
    table_keys = -(-4096 // baby_keys(65537, 4096, 8))
    results = []
    for seed in (1, 2):
        counter.reset()
        result = randomized_solve(instance, H, CampaignConfig(m=8, seed=seed))
        built = counter.scalar_muls - sum(result.per_thread_steps) \
            - result.found
        assert built == (table_keys if seed == 1 else 0), seed
        assert result.total_steps == table_keys + sum(result.per_thread_steps)
        results.append(result)
    for seed, expected in zip((1, 2), results):
        assert randomized_solve(instance, H, CampaignConfig(
            m=8, seed=seed, workers=2)) == expected


def test_no_campaign_starts_a_process():
    p = 65537
    instance = DlpInstance.from_secret(AdditiveOracleGroup(p), 12345)
    H = subgroup_generator(p, 4096)
    expected = randomized_solve(instance, H, CampaignConfig(m=8, seed=1))
    got = randomized_solve(instance, H, CampaignConfig(m=8, seed=1,
                                                       workers=2))
    assert got == expected
    assert multiprocessing.active_children() == []


def test_single_worker_campaign_does_only_accounted_work():
    counter = CountingGroup(AdditiveOracleGroup(65537))
    instance = DlpInstance.from_secret(counter, 12345)
    H = subgroup_generator(65537, 4096)
    table_keys = -(-4096 // baby_keys(65537, 4096, 8))
    for seed in range(6):
        counter.reset()
        result = randomized_solve(instance, H, CampaignConfig(m=8, seed=seed))
        # plus the winner's re-verification, which is not charged; the
        # first campaign builds the giant table and later ones reuse it
        # but are charged for it all the same
        assert counter.scalar_muls == (result.total_steps + result.found
                                       - (table_keys if seed else 0))


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
    # one for P's giant table and one for Q, read by every thread; the
    # group keeps the table, so later campaigns build Q's alone
    counter = KeyFunctionCounter(AdditiveOracleGroup(65537))
    instance = DlpInstance.from_secret(counter, 12345)
    H = subgroup_generator(65537, 4096)
    threads = []
    for seed in range(3):
        counter.key_functions = 0
        result = randomized_solve(instance, H, CampaignConfig(m=m, seed=seed))
        assert counter.key_functions == (1 if seed else 2), (m, seed)
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
    # only the shared giant sweep, which the cap does not cover: step
    # B = 10, so a = 0..ceil(256/10) - 1
    assert baby_keys(65537, 256, 3) == 10
    assert result.total_steps == 26


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
