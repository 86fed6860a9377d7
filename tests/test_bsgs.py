"""Subgroup-constrained baby-step giant-step solver."""

import dataclasses
import random
from math import gcd, isqrt

import pytest

from subgroupdlp.bsgs import (DegenerateKeyError, DlpInstance, Found,
                              NotInSubgroup, Undecided, _baby_sweep,
                              giant_encodings, kept_giant, plan,
                              solve_in_subgroup, theorem_budget)
from subgroupdlp.catalog import audit_key, load_builtin, record_from_params
from subgroupdlp.factoring import (SubgroupSpec, divisors, factor,
                                   search_prime_with_divisor,
                                   subgroup_generator)
from subgroupdlp.field import Residue
from subgroupdlp.groups import (AdditiveOracleGroup, CountingGroup,
                                CurveGroup, MultiplicativeGroup, desk_curve)
from subgroupdlp.parallel import (CampaignConfig, CampaignSuccess,
                                  draw_multipliers, randomized_solve)

G31 = AdditiveOracleGroup(31)
H5 = SubgroupSpec(d=5, zeta=Residue(2, 31))  # <2> = {1,2,4,8,16}


def _instance(group, x):
    return DlpInstance.from_secret(group, x)


def test_worked_example_member():
    # n = 3, zeta^n = 8: the giant table is {1: 0, 8: 1, 2: 2, 16: 3}, and
    # the first baby step zeta^0 * Q = 8 hits a = 1, so x = zeta^3 = 8
    result = solve_in_subgroup(_instance(G31, 8), H5)
    assert result == Found(x=Residue(8, 31), a=1, b=0, steps=5)


def test_worked_example_non_member():
    result = solve_in_subgroup(_instance(G31, 3), H5)
    assert result == NotInSubgroup(steps=8)
    assert result.steps == theorem_budget(5)


def test_worked_example_x_equal_one():
    result = solve_in_subgroup(_instance(G31, 1), H5)
    assert isinstance(result, Found)
    assert result.x == Residue(1, 31) and result.a == 0 and result.b == 0


def test_theorem_budget_values():
    assert theorem_budget(1) == 6
    assert theorem_budget(5) == 8
    assert theorem_budget(256) == 36
    assert theorem_budget(255) == 34  # isqrt(255) = 15


def _covered(split, d):
    """The exponents a*s - b mod d that a split's giant and baby keys meet."""
    return {(a * split.step - b) % d
            for a in range(split.giant) for b in range(split.baby)}


def test_every_plan_covers_the_subgroup():
    # every exponent of H is some a*s - b, so a search that misses is a
    # sound "no"; the single plan's two sweeps make the theorem budget
    for d in range(1, 501):
        single = plan(d)
        assert single.giant + single.baby == 2 * (isqrt(d) + 2), d
        assert _covered(single, d) == set(range(d)), d
    for p in (31, 211, 1999, 65537, 39 * 2**18 + 1, 2**31 - 1):
        for d in (d for d in divisors(factor(p - 1)) if d <= 3000):
            for m in (1, 2, 3, 8, 64, 1000, 2**20, 2**40):
                assert _covered(plan(d, p, m), d) == set(range(d)), (p, d, m)


def test_exhaustive_small_prime():
    """Every x mod 211 against every subgroup of (Z/211Z)*."""
    p = 211
    group = AdditiveOracleGroup(p)
    f = factor(p - 1)
    for d in divisors(f):
        H = subgroup_generator(p, d, factored=f)
        members = H.elements()
        for x in range(1, p):
            result = solve_in_subgroup(_instance(group, x), H)
            if x in members:
                assert isinstance(result, Found), (d, x)
                assert result.x.value == x
                assert result.steps <= theorem_budget(d)
            else:
                assert result == NotInSubgroup(steps=theorem_budget(d)), (d, x)


def test_collision_witness_is_consistent():
    p = 211
    f = factor(p - 1)
    group = AdditiveOracleGroup(p)
    rng = random.Random(4)
    for d in (6, 30, 70, 210):
        H = subgroup_generator(p, d, factored=f)
        n = next(n for n in range(1, d + 2) if n * n > d)  # isqrt(d) + 1
        for _ in range(10):
            x = pow(H.zeta.value, rng.randrange(d), p)
            result = solve_in_subgroup(_instance(group, x), H)
            assert isinstance(result, Found)
            assert 0 <= result.a <= n and 0 <= result.b <= n
            assert result.x.value == pow(H.zeta.value,
                                         (result.a * n - result.b) % d, p)


def _first_hit_b(x, H):
    """Least b with zeta^b * x = (zeta^n)^a for some a in [0, n]."""
    n = isqrt(H.d) + 1
    k = next(k for k in range(H.d) if pow(H.zeta.value, k, H.p) == x)
    giant = {n * a % H.d for a in range(n + 1)}
    return next(b for b in range(n + 1) if (k + b) % H.d in giant)


@pytest.mark.parametrize("p", [211, 1999])
def test_every_member_is_found_within_the_theorem_budget(p):
    """Every member of every subgroup: the first verified b is at most n-1,
    and the counted multiplies, verification included, stay in budget."""
    counter = CountingGroup(AdditiveOracleGroup(p))
    f = factor(p - 1)
    for d in divisors(f):
        H = subgroup_generator(p, d, factored=f)
        n = isqrt(d) + 1
        for x in H.elements():
            instance = DlpInstance.from_secret(counter, x)
            counter.reset()
            result = solve_in_subgroup(instance, H)
            assert isinstance(result, Found) and result.x.value == x, (d, x)
            assert result.b == _first_hit_b(x, H) <= n - 1, (d, x)
            assert result.steps == (n + 1) + (result.b + 1), (d, x)
            assert counter.scalar_muls == result.steps + 1
            assert counter.scalar_muls <= theorem_budget(d), (d, x)


def test_step_counts_match_counting_group():
    p = 211
    f = factor(p - 1)
    inner = AdditiveOracleGroup(p)
    for d in (1, 2, 14, 105, 210):
        H = subgroup_generator(p, d, factored=f)
        for x in (1, 5, 77, 210):
            counter = CountingGroup(inner)
            instance = DlpInstance.from_secret(counter, x)
            counter.reset()
            result = solve_in_subgroup(instance, H)
            expected = result.steps + (1 if isinstance(result, Found) else 0)
            assert counter.scalar_muls == expected, (d, x)


def test_backends_agree_on_verdicts():
    p = 113
    f = factor(p - 1)
    oracle = AdditiveOracleGroup(p)
    mult = MultiplicativeGroup(227, 147, p)
    for d in divisors(f):
        H = subgroup_generator(p, d, factored=f)
        for x in (1, 2, 45, 112):
            r1 = solve_in_subgroup(_instance(oracle, x), H)
            r2 = solve_in_subgroup(_instance(mult, x), H)
            assert type(r1) is type(r2)
            assert r1.steps == r2.steps
            if isinstance(r1, Found):
                assert (r1.x, r1.a, r1.b) == (r2.x, r2.a, r2.b)


def _backends_of_order_1999():
    # the desk curve has order 1999, and 1999 | 19991 - 1
    return (AdditiveOracleGroup(1999),
            MultiplicativeGroup(19991, 15261, 1999),
            CurveGroup(desk_curve()))


def test_backends_agree_on_every_subgroup_of_order_1999():
    """Same (d, x, cap) gives the same verdict dataclass on all backends."""
    p = 1999  # p - 1 = 2 * 3^3 * 37: sixteen subgroups
    groups = _backends_of_order_1999()
    f = factor(p - 1)
    rng = random.Random(1999)
    for d in divisors(f):
        H = subgroup_generator(p, d, factored=f)
        members = H.elements()
        planted = [pow(H.zeta.value, rng.randrange(d), p) for _ in range(6)]
        outside = [x for x in (rng.randrange(2, p - 1) for _ in range(30))
                   if x not in members][:6]
        for x in [1, p - 1] + planted + outside:
            instances = [DlpInstance.from_secret(g, x) for g in groups]
            for cap in (None, 0, 3):
                oracle, mult, curve = (solve_in_subgroup(i, H, step_cap=cap)
                                       for i in instances)
                assert oracle == mult == curve, (d, x, cap)
                if cap is None:
                    assert isinstance(oracle, Found) == (x in members)


def test_backends_agree_at_the_edges():
    p = 1999
    f = factor(p - 1)
    trivial = subgroup_generator(p, 1, factored=f)
    everything = subgroup_generator(p, p - 1, factored=f)
    for group in _backends_of_order_1999():
        one, minus_one = _instance(group, 1), _instance(group, p - 1)
        assert solve_in_subgroup(one, trivial) == Found(
            x=Residue(1, p), a=0, b=0, steps=4)
        assert solve_in_subgroup(minus_one, trivial) == NotInSubgroup(
            steps=theorem_budget(1))
        found = solve_in_subgroup(minus_one, everything)
        assert isinstance(found, Found) and found.x == Residue(p - 1, p)
        assert found.steps <= theorem_budget(p - 1)
        for H in (trivial, everything):
            for instance in (one, minus_one):
                assert solve_in_subgroup(instance, H, step_cap=0) == \
                    Undecided(steps=0)


def test_backends_agree_on_a_28_bit_curve(mid_curve_params):
    # the curve's record, the oracle mod its order n and a multiplicative
    # group of order n run one (x, d, seed) to one verdict and one campaign
    record = record_from_params(mid_curve_params)
    n = record.p
    r = search_prime_with_divisor(n, 48, random.Random(n))
    g = next(g for g in (pow(h, (r - 1) // n, r) for h in range(2, r))
             if g != 1)
    groups = (record.group, record.oracle_group,
              MultiplicativeGroup(r, g, n))
    rng = random.Random(28)
    for d in (324, 8100, 24337):  # 2^8.3, 2^13.0, 2^14.6
        H = record.subgroup(d)
        m, seed = 16, d
        y = draw_multipliers(n, m, seed)[m // 2]
        member = pow(H.zeta.value, rng.randrange(d), n)
        # a member, a key that thread m/2 (or an earlier one) moves into
        # H, and a key outside H
        keys = (member, member * pow(y, -1, n) % n, rng.randrange(2, n))
        verdicts, campaigns = [], []
        for x in keys:
            instances = [DlpInstance.from_secret(group, x)
                         for group in groups]
            curve, oracle, mult = (solve_in_subgroup(i, H) for i in instances)
            assert curve == oracle == mult, (d, x)
            verdicts.append(type(curve))
            config = CampaignConfig(m=m, seed=seed)
            curve, oracle, mult = (randomized_solve(i, H, config)
                                   for i in instances)
            assert curve == oracle == mult, (d, x)
            assert curve.threads_run == oracle.threads_run == mult.threads_run
            campaigns.append(curve)
        assert verdicts == [Found, NotInSubgroup, NotInSubgroup], d
        assert campaigns[1].found
        assert campaigns[1].success.index <= m // 2


@pytest.mark.parametrize("backend", range(3),
                         ids=["oracle", "multiplicative", "curve"])
def test_q_equal_to_p_hits_giant_index_zero(backend):
    # x = 1 lies in every H; its first baby key is P's, whose table value
    # is a = 0, a hit that a truthiness test would drop
    p = 1999
    group = _backends_of_order_1999()[backend]
    instance = DlpInstance(group=group, P=group.generator, Q=group.generator)
    for d in divisors(factor(p - 1)):
        H = subgroup_generator(p, d)
        assert solve_in_subgroup(instance, H) == Found(
            x=Residue(1, p), a=0, b=0, steps=isqrt(d) + 3), d


def test_a_hit_that_fails_verification_resumes_the_sweep():
    # x = 4 first hits at b = 1 (zeta * Q = 8, a = 1); a bogus entry for
    # Q's own key proposes x = 1 at b = 0, which is rejected, and the sweep
    # goes on to the next key
    group = CountingGroup(G31)
    instance = _instance(group, 4)
    table = giant_encodings(group, group.generator, H5, plan(5))
    key = group.encode(instance.Q)  # the counting layer's keys are bytes
    assert key not in table
    group.reset()
    result = _baby_sweep(instance, H5, {**table, key: 0}, 1, plan(5))
    assert result == Found(x=Residue(4, 31), a=1, b=1, steps=2)
    # two baby keys, then the rejected and the accepted verification
    assert group.scalar_muls == 4


def test_curve_group_membership():
    group = CurveGroup(desk_curve())
    p = group.order  # 1999; p-1 = 2 * 3^3 * 37
    f = factor(p - 1)
    H = subgroup_generator(p, 27, factored=f)
    members = H.elements()
    for k in (0, 1, 9, 13, 26):
        x = pow(H.zeta.value, k, p)
        result = solve_in_subgroup(_instance(group, x), H)
        assert isinstance(result, Found) and result.x.value == x
    rng = random.Random(6)
    misses = 0
    while misses < 5:
        x = rng.randrange(1, p)
        if x in members:
            continue
        misses += 1
        result = solve_in_subgroup(_instance(group, x), H)
        assert result == NotInSubgroup(steps=theorem_budget(27))
    assert isinstance(solve_in_subgroup(
        _instance(group, pow(H.zeta.value, 7, p)), H), Found)
    non_member = next(x for x in range(2, p) if x not in members)
    assert not isinstance(solve_in_subgroup(_instance(group, non_member), H),
                          Found)


def test_step_cap_returns_undecided():
    non_member = _instance(G31, 3)
    assert solve_in_subgroup(non_member, H5, step_cap=0) == Undecided(steps=0)
    # cap inside the giant sweep, which runs first (n + 1 = 4 multiplies)
    assert solve_in_subgroup(non_member, H5, step_cap=3) == Undecided(steps=3)
    # cap inside the baby sweep
    assert solve_in_subgroup(non_member, H5, step_cap=5) == Undecided(steps=5)
    # cap exactly at the theorem budget never triggers
    assert solve_in_subgroup(non_member, H5,
                             step_cap=theorem_budget(5)) == NotInSubgroup(8)
    # a negative cap is an error, with or without a kept table
    for kept in (False, True):
        with pytest.raises(ValueError, match="step cap"):
            solve_in_subgroup(non_member, H5, step_cap=-1, kept=kept)


def test_a_capped_baby_sweep_stops_at_its_cap():
    # a cap at the sweep's count leaves the verdict alone; a cap below it
    # sweeps that many keys and is Undecided at the cap unless one hits
    table = giant_encodings(G31, G31.generator, H5, plan(5))

    def sweep(x, cap):
        instance = _instance(G31, x)
        return _baby_sweep(instance, H5, table, 1, plan(5), cap)

    assert sweep(3, None) == sweep(3, 4) == NotInSubgroup(steps=4)
    assert sweep(3, 3) == Undecided(steps=3)
    assert sweep(3, 0) == Undecided(steps=0)
    assert sweep(4, None) == sweep(4, 2) == Found(x=Residue(4, 31), a=1,
                                                  b=1, steps=2)
    assert sweep(4, 1) == Undecided(steps=1)


def test_kept_giant_encodings():
    p = 211
    f = factor(p - 1)
    group = AdditiveOracleGroup(p)
    for d in (5, 30, 210):
        H = subgroup_generator(p, d, factored=f)
        kept = kept_giant(group, group.generator, H, plan(d))
        assert kept_giant(group, group.generator, H, plan(d)) is kept
        n = isqrt(d) + 1
        cost = plan(d).giant
        assert cost == n + 1
        zeta_n = pow(H.zeta.value, n, p)
        least = {}
        for a in range(n + 1):  # the oracle group keys k*1 by the int k
            least.setdefault(pow(zeta_n, a, p), a)
        assert kept == least
        # a kept table is charged at the plan's giant keys, so the kept
        # solve reads the fresh solve's verdict and steps, under any cap:
        # below the cost, at it, inside the baby sweep and at the theorem
        # budget
        caps = (None, 0, cost - 1, cost, cost + 1, theorem_budget(d) - 1,
                theorem_budget(d))
        for x in range(1, p):
            instance = _instance(group, x)
            for cap in caps:
                plain = solve_in_subgroup(instance, H, step_cap=cap)
                from_kept = solve_in_subgroup(instance, H, step_cap=cap,
                                              kept=True)
                assert from_kept == plain, (d, x, cap)
                if cap is not None and cap <= cost:
                    assert from_kept == Undecided(steps=cap)
        # and every kept solve read the one table
        assert vars(group)["_kept_giants"][
            (group.generator, H, plan(d))] is kept


def test_a_second_generator_of_a_subgroup_gets_its_own_table():
    # zeta and zeta^2 generate the same order-71 subgroup, but their giant
    # tables differ, so each is kept under its own generator
    rec = dataclasses.replace(load_builtin("P-256"))  # a group of its own
    group = rec.oracle_group
    P = group.generator
    H = subgroup_generator(rec.p, 71, generator=rec.primitive_root)
    H2 = SubgroupSpec(d=71, zeta=Residue(pow(H.zeta.value, 2, rec.p), rec.p))
    kept, kept2 = (kept_giant(group, P, H, plan(71)),
                   kept_giant(group, P, H2, plan(71)))
    assert kept2 is not kept and kept2 != kept
    member = _instance(group, pow(H2.zeta.value, 40, rec.p))
    found = solve_in_subgroup(member, H2, kept=True)
    assert found == solve_in_subgroup(member, H2)
    assert isinstance(found, Found) and found.x.value == member.Q.data
    # the kept solve read kept2 and built no third table
    assert list(vars(group)["_kept_giants"].values()) == [kept, kept2]


def test_a_counting_layer_keeps_its_own_tables():
    inner = AdditiveOracleGroup(211)
    counter = CountingGroup(inner)
    H = subgroup_generator(211, 30)
    kept = kept_giant(inner, inner.generator, H, plan(30))
    counted = kept_giant(counter, counter.generator, H, plan(30))
    assert counted is not kept
    # the layer keys by encodings, the group by its ints
    assert counted == {inner.encode(inner.element(k)): a
                       for k, a in kept.items()}
    cost = plan(30).giant
    assert counter.scalar_muls == cost   # built through the layer
    assert kept_giant(counter, counter.generator, H, plan(30)) is counted
    assert kept_giant(inner, inner.generator, H, plan(30)) is kept
    assert counter.scalar_muls == cost   # and only once


def test_a_single_and_a_one_thread_plan_keep_their_own_tables():
    # at m = 1 a campaign's step is the single solve's n, but its table
    # has ceil(d/n) keys, not n+1: one group keeps both, each search reads
    # its own, and either order gives the verdicts and steps of fresh
    # records
    base = dataclasses.replace(load_builtin("P-256"))  # a group of its own
    p, d, config = base.p, 71, CampaignConfig(m=1, seed=3)
    single, one_thread = plan(d), plan(d, p, 1)
    assert single.step == one_thread.step
    assert single.giant != one_thread.giant
    zeta = base.subgroup(d).zeta.value
    y = draw_multipliers(p, 1, config.seed)[0]
    keys = ([pow(zeta, k, p) for k in (0, 1, 35, 70)]  # members
            # keys whose one campaign thread lands in H: z = x*y = zeta^k
            + [pow(zeta, k, p) * pow(y, -1, p) % p for k in (0, 9, 70)]
            + [2, p - 1])

    def audit(rec, x):
        return audit_key(rec, x=x, subgroups=(d,)).entries

    def campaign(rec, x):
        instance = DlpInstance.from_secret(rec.oracle_group, x)
        return randomized_solve(instance, rec.subgroup(d), config)

    outcomes = set()
    for x in keys:
        expected = (audit(dataclasses.replace(base), x),
                    campaign(dataclasses.replace(base), x))
        outcomes.add((expected[0][0].status, expected[1].found))
        rec = dataclasses.replace(base)
        assert (audit(rec, x), campaign(rec, x)) == expected, x
        splits = [split for _, _, split in vars(rec.oracle_group)[
            "_kept_giants"]]
        assert len(splits) == 2 and set(splits) == {single, one_thread}
        rec = dataclasses.replace(base)
        assert campaign(rec, x) == expected[1], x
        assert audit(rec, x) == expected[0], x
    assert {("member", False), ("non-member", True),
            ("non-member", False)} <= outcomes


def test_both_sides_of_a_search_are_keyed_by_one_group_object():
    # keys are canonical only within one group object: a counting layer
    # over G sweeps Q through its own encodings, so it must build and read
    # its own tables and never G's int-keyed ones
    inner = AdditiveOracleGroup(211)
    H = subgroup_generator(211, 30)
    x = pow(H.zeta.value, 7, 211)
    plain = _instance(inner, x)
    found = solve_in_subgroup(plain, H, kept=True)
    kept = kept_giant(inner, plain.P, H, plan(30))
    config = CampaignConfig(m=4, seed=1)
    campaign = randomized_solve(plain, H, config)
    counter = CountingGroup(inner)
    counted = _instance(counter, x)
    counter.reset()
    assert solve_in_subgroup(counted, H, kept=True) == found
    assert randomized_solve(counted, H, config) == campaign
    assert all(type(k) is int for k in kept)
    for table in vars(counter)["_kept_giants"].values():
        assert all(type(k) is bytes for k in table)
    # the layer built both of its tables: every step charged is a counted
    # multiply, plus the two verifications
    assert len(vars(counter)["_kept_giants"]) == 2
    assert counter.scalar_muls == (found.steps + 1 + campaign.total_steps
                                   + campaign.found)


def test_duplicate_giant_keys_keep_the_least_a():
    # zeta = -1 and n = 2, so zeta^n = 1 and all three giant keys are P,
    # the oracle group's int 1: every a proposes one x, and a = 0 is kept
    H2 = SubgroupSpec(d=2, zeta=Residue(30, 31))
    table = giant_encodings(G31, G31.generator, H2, plan(2))
    assert table == {1: 0}
    # b = 0 misses (Q = 30), b = 1 hits (zeta * Q = 1) and a = 0 verifies
    result = solve_in_subgroup(_instance(G31, 30), H2)
    assert result == Found(x=Residue(30, 31), a=0, b=1, steps=5)
    assert solve_in_subgroup(_instance(G31, 2), H2) == NotInSubgroup(
        steps=theorem_budget(2))


def _every_a_table(group, P, H, split):
    """The giant table before one a per key: a repeated key kept every a,
    as a tuple in increasing order."""
    keys = []
    for _ in group.sweep_keys(P)(1, pow(H.zeta.value, split.step, H.p),
                                 split.giant, keys.append):
        pass
    table = dict(zip(keys, range(split.giant)))
    if len(table) < split.giant:  # a repeated key: the zip kept its last a
        every = {}
        for a, key in enumerate(keys):
            every.setdefault(key, []).append(a)
        table = {key: tuple(a) if len(a) > 1 else a[0]
                 for key, a in every.items()}
    return table


def _every_a_sweep(instance, H, table, y, split):
    """The baby sweep that tried each a of a tuple-valued hit in turn."""
    group, P, Q = instance.group, instance.P, instance.Q
    p, zeta, d = H.p, H.zeta.value, H.d
    for b, hit in instance.sweep_q(y, zeta, split.baby, table.get):
        for a in hit if type(hit) is tuple else (hit,):
            x = pow(y, -1, p) * pow(zeta, (a * split.step - b) % d, p) % p
            if group.scalar_mul(x, P) == Q:
                return Found(x=Residue(x, p), a=a, b=b, steps=b + 1)
    return NotInSubgroup(split.baby)


def _every_a_campaign(instance, H, table, split, config):
    """The campaign loop on an every-a table: (success, total_steps,
    threads_run, per_thread_steps), threads counted one by one."""
    p = instance.p
    success, total, threads, per_thread = None, split.giant, 0, []
    swept = set()
    for i, y in enumerate(draw_multipliers(p, config.m, config.seed)):
        coset = pow(y, H.d, p)
        if coset in swept:
            verdict = NotInSubgroup(0)
        else:
            verdict = _every_a_sweep(instance, H, table, y, split)
            if isinstance(verdict, NotInSubgroup):
                swept.add(coset)
        threads += 1
        total += verdict.steps
        per_thread.append(verdict.steps)
        if isinstance(verdict, Found):
            success = CampaignSuccess(x=verdict.x, index=i, y=Residue(y, p),
                                      z=Residue(verdict.x.value * y % p, p))
            break
    return success, total, threads, per_thread


def test_one_a_per_key_matches_every_a_per_key():
    # a repeated giant key names one point, so the least a stands for all
    # of them.  On the oracle groups mod 31, 211 and 1999, at every divisor
    # d, single solves give what the every-a table and its tuple-trying
    # sweep gave, at every x.  Campaigns (m = 1, 4, 16, seeds 0-3) do too,
    # at x = 1, 1 + stride, ...: every x mod 31, every 5th mod 211 and
    # every 67th mod 1999 (every x took ~50 s on a 2-vCPU Xeon).  No campaign
    # plan repeats a key, so its one-a table is the every-a table itself.
    repeating = set()
    for p, stride in ((31, 1), (211, 5), (1999, 67)):
        group = AdditiveOracleGroup(p)
        f = factor(p - 1)
        for d in divisors(f):
            H = subgroup_generator(p, d, factored=f)
            single = plan(d)
            every = _every_a_table(group, group.generator, H, single)
            if single.giant > d // gcd(d, single.step):  # ord(zeta^s)
                repeating.add((p, d))
                assert any(type(a) is tuple for a in every.values())
            campaigns = []
            for m in (1, 4, 16):
                split = plan(d, p, m)
                # ord(zeta^B) >= ceil(d/B)
                assert d // gcd(d, split.step) >= split.giant, (p, d, m)
                table = _every_a_table(group, group.generator, H, split)
                assert table == giant_encodings(group, group.generator, H,
                                                split)
                campaigns += [(split, table, CampaignConfig(m=m, seed=seed))
                              for seed in range(4)]
            for x in range(1, p):
                instance = _instance(group, x)
                expected = _every_a_sweep(instance, H, every, 1, single)
                expected = dataclasses.replace(
                    expected, steps=single.giant + expected.steps)
                assert solve_in_subgroup(instance, H) == expected, (p, d, x)
                if (x - 1) % stride:
                    continue
                for split, table, config in campaigns:
                    result = randomized_solve(instance, H, config)
                    assert result.plan == split
                    assert (result.success, result.total_steps,
                            result.threads_run, result.per_thread_steps
                            ) == _every_a_campaign(
                                instance, H, table, split, config), \
                        (p, d, x, config)
    assert {(31, 2), (31, 6), (31, 30)} <= repeating


def test_trivial_subgroup():
    H1 = SubgroupSpec(d=1, zeta=Residue(1, 31))
    found = solve_in_subgroup(_instance(G31, 1), H1)
    assert isinstance(found, Found) and found.x == Residue(1, 31)
    out = solve_in_subgroup(_instance(G31, 2), H1)
    assert out == NotInSubgroup(steps=theorem_budget(1))


def test_verification_gate_rejects_bogus_collisions():
    # a table that maps the key of 8*P to a = 2, not 1: the first collision
    # (b = 0, a = 2) recovers zeta^6 = 2 instead of 8.  The re-verification
    # multiply must reject it, and the sweep goes on to b = 1, where
    # zeta * Q = 16 hits a = 3 and zeta^8 = 8 verifies.
    group = CountingGroup(G31)
    instance = _instance(group, 8)
    table = giant_encodings(group, group.generator, H5, plan(5))
    key = group.encode(instance.Q)
    assert table[key] == 1
    group.reset()
    result = _baby_sweep(instance, H5, {**table, key: 2}, 1, plan(5))
    assert result == Found(x=Residue(8, 31), a=3, b=1, steps=2)
    # two baby keys, then the rejected and the accepted verification
    assert group.scalar_muls == 4


def test_a_spec_that_lies_about_its_order_cannot_be_built():
    # 2 has order 5 mod 31: a search over either spec claiming order 10
    # would call x = 30 = -1, a member, a non-member
    with pytest.raises(ValueError, match="does not have order 10"):
        SubgroupSpec(d=10, zeta=Residue(2, 31))
    with pytest.raises(ValueError, match="does not have order 10"):
        subgroup_generator(31, 10, generator=Residue(2, 31))
    found = solve_in_subgroup(_instance(G31, 30), subgroup_generator(31, 10))
    assert isinstance(found, Found) and found.x == Residue(30, 31)


def test_a_cap_below_the_table_cost_multiplies_nothing():
    # the giant table costs n + 1 = 4 multiplies; a cap of 3 cannot pay
    # for it, so the solve stops before building any of it
    group = CountingGroup(G31)
    instance = _instance(group, 3)
    group.reset()
    assert solve_in_subgroup(instance, H5, step_cap=3) == Undecided(steps=3)
    assert group.scalar_muls == 0


def test_degenerate_key_raises():
    # Q = O is refused where the instance is built, on every backend
    for group in (G31, CountingGroup(G31), CurveGroup(desk_curve())):
        with pytest.raises(DegenerateKeyError):
            DlpInstance(group=group, P=group.generator, Q=group.identity)
        with pytest.raises(DegenerateKeyError):
            DlpInstance.from_secret(group, group.order)


def test_subgroup_modulus_mismatch():
    with pytest.raises(ValueError):
        solve_in_subgroup(_instance(AdditiveOracleGroup(37), 3), H5)


def test_instance_validation():
    with pytest.raises(ValueError):
        DlpInstance(group=G31, P=G31.identity, Q=G31.element(3))
    other = AdditiveOracleGroup(37)
    with pytest.raises(ValueError):
        DlpInstance(group=G31, P=G31.generator, Q=other.element(3))


def test_instance_p_is_read_from_its_group():
    for group in (G31, CountingGroup(G31), CurveGroup(desk_curve())):
        instance = DlpInstance(group=group, P=group.generator,
                               Q=group.scalar_mul(3, group.generator))
        assert instance.p == group.order
    assert [f.name for f in dataclasses.fields(DlpInstance)] == \
        ["group", "P", "Q"]
    with pytest.raises(TypeError):
        DlpInstance(group=G31, P=G31.generator, Q=G31.element(3), p=31)
