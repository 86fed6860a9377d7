"""Factorization, subgroup generators, divisor search."""

import dataclasses
import functools
import math
import random

import pytest

from subgroupdlp import factoring
from subgroupdlp.catalog import builtin_names, load_builtin
from subgroupdlp.factoring import (FactoredInteger, SubgroupSpec, divisors,
                                   factor, find_primitive_root,
                                   nearest_divisor, pollard_rho_brent,
                                   search_prime_with_divisor,
                                   subgroup_generator)
from subgroupdlp.field import Residue, is_probable_prime


def test_factor_small_values():
    cases = {
        1: [],
        2: [(2, 1)],
        30: [(2, 1), (3, 1), (5, 1)],
        360: [(2, 3), (3, 2), (5, 1)],
        65536: [(2, 16)],
        65537: [(65537, 1)],
        2 ** 31 - 1: [(2 ** 31 - 1, 1)],
        10403: [(101, 1), (103, 1)],
    }
    for n, expected in cases.items():
        got = factor(n)
        assert got.factors == expected, n
        assert got.complete and got.residual == 1
        assert got.verify()


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        factor(-6)


def test_factor_random_values_against_product():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(2, 10 ** 9)
        got = factor(n)
        assert got.verify() and got.n == n
        assert got.product() == n


def test_factor_beyond_trial_division():
    # two ~30-bit primes: trial division cannot touch this, rho must split it
    p, q = 1000000007, 1000000009
    got = factor(p * q)
    assert got.factors == [(p, 1), (q, 1)]
    assert got.complete


def _trial_division(n):
    """Reference factorization by dividing by every integer up to sqrt."""
    counts, f = {}, 2
    while f * f <= n:
        while n % f == 0:
            counts[f] = counts.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        counts[n] = counts.get(n, 0) + 1
    return sorted(counts.items())


def _random_prime(rng, lo, hi):
    while True:
        q = rng.randrange(lo, hi)
        if is_probable_prime(q):
            return q


def test_factor_finds_primes_between_the_trial_bound_and_a_million():
    # Factors in [2^16, 10^6) are left to rho: alone, squared, in pairs
    # (products above 2^32, so the "unsplit means prime" shortcut must
    # not apply) and next to a 27-bit prime or small-prime noise.
    rng = random.Random(16)
    for case in range(24):
        a = _random_prime(rng, 1 << 16, 10 ** 6)
        b = _random_prime(rng, 1 << 16, 10 ** 6)
        other = (b, a, _random_prime(rng, 1 << 26, 1 << 27), 1)[case % 4]
        n = (2 ** rng.randrange(0, 21) * rng.choice((1, 3, 15, 1009))
             * a * other)
        got = factor(n)
        assert got.complete and got.verify(), n
        assert got.factors == _trial_division(n), n


@functools.cache
def _primes_below(bound):
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i in range(bound) if flags[i]]


def _root_by_bisection(n, k):
    """The largest r with r^k <= n, bit by bit from the top."""
    r = 0
    for bit in reversed(range(n.bit_length() // k + 1)):
        if (r | 1 << bit) ** k <= n:
            r |= 1 << bit
    return r


def _factor_one_prime_at_a_time(n, rho_budget=factoring.DEFAULT_RHO_BUDGET):
    """factor as it was before trial division walked runs: every prime
    below the trial bound in turn until p*p > m, then the same rho stage."""
    counts = {}
    m = n
    for p in _primes_below(factoring.TRIAL_BOUND):
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    rng = None
    residual = 1
    if m > 1:
        pending = [m]
        budget = rho_budget
        while pending:
            chunk = pending.pop()
            if chunk < factoring.TRIAL_BOUND ** 2 or is_probable_prime(chunk):
                counts[chunk] = counts.get(chunk, 0) + 1
                continue
            k = next((k for k in range(2, chunk.bit_length() // 16 + 1)
                      if _root_by_bisection(chunk, k) ** k == chunk), 0)
            if k:
                pending += [_root_by_bisection(chunk, k)] * k
                continue
            rng = rng or random.Random(n & 0xFFFFFFFF)
            split = pollard_rho_brent(chunk, rng, max_iters=budget) \
                if budget > 0 else None
            if split is None:
                residual *= chunk
                continue
            budget >>= 1
            pending.append(split)
            pending.append(chunk // split)
    return FactoredInteger(n=n, factors=sorted(counts.items()),
                           residual=residual)


def test_trial_runs_are_the_primes_below_the_bound_with_their_products():
    runs = factoring._trial_runs()
    assert [p for _, run in runs for p in run] == \
        _primes_below(factoring.TRIAL_BOUND)
    assert all(len(run) == factoring.TRIAL_RUN for _, run in runs[:-1])
    assert all(product == math.prod(run) for product, run in runs)


def test_factor_by_runs_matches_one_prime_at_a_time():
    runs = [run for _, run in factoring._trial_runs()]
    cases = list(range(1, 5000))
    # a run's last prime next to the following run's first: the stop
    # test reads run[0], so run[-1] must not end the scan early
    cases += [a[-1] * b[0] for a, b in zip(runs, runs[1:])]
    cases += [a[-1] ** 2 * b[0] for a, b in zip(runs, runs[1:])]
    # two primes of one run, which the run's gcd sees together
    cases += [run[i] * run[j] for run in runs
              for i, j in ((0, 1), (0, -1), (-2, -1)) if len(run) > 1]
    cases += [2 ** 40, 3 ** 25, 65521 ** 3,
              65521 ** 2, 65521 * 65537, 65537 ** 2]
    rng = random.Random(30)
    shaped = [2 ** rng.randrange(1, 9) * _random_prime(rng, 1 << 26, 1 << 27)
              * _random_prime(rng, 1 << 26, 1 << 27) for _ in range(12)]
    for n in cases + shaped:
        assert factor(n) == _factor_one_prime_at_a_time(n), n
    for n in shaped + [65521 * 65537, 65537 ** 2]:  # rho starved or cut short
        for budget in (0, 5):
            assert factor(n, rho_budget=budget) == \
                _factor_one_prime_at_a_time(n, rho_budget=budget), (n, budget)


def test_factor_at_each_trial_table_s_edge_matches_one_prime_at_a_time():
    # n is scanned against the primes below the power of two just above
    # isqrt(n), capped at TRIAL_BOUND; with q the largest prime below 2^k
    # and r the smallest above it, q^2 and q*r need q from the table of
    # 2^k or the next, and 2^k*q reads its 2^k from the smallest tables
    cases = []
    for k in range(2, 18):
        q = max(_primes_below(1 << k))
        r = next(r for r in range((1 << k) + 1, 1 << k + 1)
                 if is_probable_prime(r))
        cases += [q * q, q * r, (1 << k) * q, q * q * r,
                  (1 << 2 * k) - 1, 1 << 2 * k, (1 << 2 * k) + 1]
    for n in cases:
        assert factor(n) == _factor_one_prime_at_a_time(n), n
    for k in range(1, 17):
        runs = factoring._trial_runs(1 << k)
        assert [p for _, run in runs for p in run] == _primes_below(1 << k)


def test_factor_refuses_a_negative_budget():
    with pytest.raises(ValueError, match="rho budget must be >= 0, got -7"):
        factor(1000000007 * 1000000009, rho_budget=-7)
    with pytest.raises(ValueError, match="rho budget must be >= 0, got -1"):
        factor(30, rho_budget=-1)  # even where trial division alone finishes
    assert factor(30, rho_budget=0).factors == [(2, 1), (3, 1), (5, 1)]


def test_factor_reports_honest_residual():
    p, q = 1000000007, 1000000009
    got = factor(p * q, rho_budget=0)
    assert not got.complete
    assert got.residual == p * q
    assert got.factors == []
    assert got.verify()
    assert got.product() == p * q
    assert got.format().endswith("= %d" % (p * q))


def test_factor_splits_the_square_of_a_large_prime_at_its_root():
    m61 = 2 ** 61 - 1  # rho would need ~2^30 steps to split m61^2
    assert factor(m61 ** 2).factors == [(m61, 2)]
    assert factor(m61 ** 2, rho_budget=0).complete
    got = factor(733733853673273561206488826731770675339 - 1)
    assert got.complete and got.factors == [(2, 1), (3, 1), (23, 1), (m61, 2)]
    assert factor(65537 ** 2, rho_budget=0).factors == [(65537, 2)]
    # a composite root is split further, each copy in turn
    q = 1000000007
    assert factor((q * m61) ** 2).factors == [(q, 2), (m61, 2)]


def test_factor_splits_every_power_of_a_large_prime_at_its_root():
    m61 = 2 ** 61 - 1
    assert factor(m61 ** 3, rho_budget=0).factors == [(m61, 3)]
    # rho splits off 10^9 + 7 within the budget, then m61^5 is a 5th power
    got = factor(m61 ** 5 * (10 ** 9 + 7), rho_budget=1 << 18)
    assert got.complete and got.factors == [(10 ** 9 + 7, 1), (m61, 5)]
    q = 1000000007
    for n in (65537 ** 7, (q * m61) ** 6, m61 ** 2 * q ** 3):
        assert factor(n, rho_budget=0) == _factor_one_prime_at_a_time(
            n, rho_budget=0), n
    assert factor(65537 ** 7, rho_budget=0).factors == [(65537, 7)]
    assert factor((q * m61) ** 6).factors == [(q, 6), (m61, 6)]
    assert not factor(m61 ** 2 * q ** 3, rho_budget=0).complete


def test_root_by_bisection_and_newton_agree():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.getrandbits(rng.randrange(1, 600)) | 1
        k = rng.randrange(2, 40)
        r = _root_by_bisection(n, k)
        assert r ** k <= n < (r + 1) ** k
        assert factoring._iroot(n, k) == r, (n, k)


def test_pollard_rho_splits_semiprime():
    n = 1000003 * 1000033
    g = pollard_rho_brent(n, random.Random(1))
    assert g in (1000003, 1000033)
    assert pollard_rho_brent(2 * 3, random.Random(1)) == 2


def test_pollard_rho_budget_exhaustion_returns_none():
    n = 1000003 * 1000033
    assert pollard_rho_brent(n, random.Random(5), max_iters=4) is None


def _rho_one_squaring_per_pass(n, rng, max_iters=1 << 22):
    """pollard_rho_brent as it was before its loops were unrolled."""
    if n % 2 == 0:
        return 2
    budget = max_iters
    while budget > 0:
        c = rng.randrange(1, n)
        y = rng.randrange(0, n)
        m = 128
        r = 1
        q = 1
        g = 1
        x = ys = y
        while g == 1 and budget > 0:
            x = y
            for _ in range(min(r, budget)):
                y = (y * y + c) % n
            budget -= min(r, budget)
            k = 0
            while k < r and g == 1 and budget > 0:
                ys = y
                steps = min(m, r - k, budget)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += steps
                budget -= steps
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
            if g == n:
                continue
        if 1 < g < n:
            return g
    return None


def test_pollard_rho_brent_matches_one_squaring_per_pass():
    # same factor or None and the same polynomials drawn (rng state) for
    # every budget, on and around the 4-way unroll and the 128-step gcd
    rng = random.Random(31)
    cases = [15, 21, 25, 35, 91, 143, 1000003 * 1000033]
    for bits in (20, 24, 31, 40, 48, 55, 62):
        low = bits // 2
        cases.append(_random_prime(rng, 1 << low - 1, 1 << low)
                     * _random_prime(rng, 1 << bits - low - 1,
                                     1 << bits - low))
    budgets = list(range(1, 10)) + [127, 128, 129, 1 << 22]
    outcomes = set()
    for n in cases:
        for seed in range(3):
            for budget in budgets:
                got_rng, ref_rng = random.Random(seed), random.Random(seed)
                got = pollard_rho_brent(n, got_rng, max_iters=budget)
                assert got == _rho_one_squaring_per_pass(
                    n, ref_rng, max_iters=budget), (n, seed, budget)
                assert got_rng.getstate() == ref_rng.getstate()
                outcomes.add(got is None)
    assert outcomes == {True, False}


def test_factored_integer_format():
    assert factor(30).format() == "30 = 2 * 3 * 5"
    assert factor(360).format() == "360 = 2^3 * 3^2 * 5"
    assert factor(1).format() == "1 = 1"


def test_factored_integer_verify_negatives():
    assert not FactoredInteger(n=30, factors=[(2, 1), (3, 1)]).verify()
    assert not FactoredInteger(n=12, factors=[(4, 1), (3, 1)]).verify()
    assert not FactoredInteger(n=12, factors=[(3, 1), (2, 2)]).verify()  # unsorted
    assert FactoredInteger(n=12, factors=[(2, 2), (3, 1)]).verify()


def test_divisor_count():
    assert factor(360).divisor_count() == 24
    assert factor(1).divisor_count() == 1


def test_find_primitive_root_small_primes():
    # brute-force the least primitive root by computing element orders
    for p in (2, 3, 7, 11, 13, 31, 227, 65537):
        f = factor(p - 1)
        g = find_primitive_root(p, f)
        assert isinstance(g, Residue) and g.modulus == p
        for h in range(2, g.value):
            order = next(k for k in divisors(f) if pow(h, k, p) == 1)
            assert order < p - 1, "missed a smaller primitive root"
        order = next(k for k in divisors(f) if pow(g.value, k, p) == 1)
        assert order == p - 1


def test_find_primitive_root_requires_complete_factorization():
    partial = FactoredInteger(n=30, factors=[(2, 1), (3, 1)], residual=5)
    with pytest.raises(ValueError):
        find_primitive_root(31, partial)
    with pytest.raises(ValueError):
        find_primitive_root(31, factor(28))  # factorization of the wrong n
    with pytest.raises(ValueError):
        find_primitive_root(15, factor(14))  # composite modulus


def test_subgroup_generator_orders():
    p = 31
    for d in (1, 2, 3, 5, 6, 10, 15, 30):
        spec = subgroup_generator(p, d)
        assert spec.d == d and spec.p == p
        # order exactly d, checked by enumeration
        elems = spec.elements()
        assert len(elems) == d
        assert all(pow(x, d, p) == 1 for x in elems)
    with pytest.raises(ValueError, match=r"^d = 7 does not divide p-1 = 30$"):
        subgroup_generator(31, 7)
    with pytest.raises(ValueError):
        subgroup_generator(31, 0)
    with pytest.raises(ValueError):
        subgroup_generator(15, 2)   # composite modulus
    with pytest.raises(ValueError):
        subgroup_generator(31, 5, generator=Residue(3, 37))  # wrong modulus


def test_subgroup_spec_rejects_wrong_order(monkeypatch):
    # an element of order 5 presented as an order-10 generator, and as an
    # order-7 one, whose 7th power is not even 1: construction refuses both
    zeta = subgroup_generator(31, 5).zeta
    for d in (10, 7):
        with pytest.raises(ValueError, match="does not have order %d" % d):
            SubgroupSpec(d=d, zeta=zeta)
    # without every prime of d the order is unproved, so it is refused too
    monkeypatch.setattr(factoring, "factor", lambda n: FactoredInteger(
        n=n, factors=[], residual=n))
    with pytest.raises(ValueError, match="cannot completely factor d = 5"):
        SubgroupSpec(d=5, zeta=zeta)


def test_subgroup_spec_builds_exactly_when_zeta_has_order_d():
    # brute force: the order of z by repeated multiplication.  Half the z
    # are drawn from the order-d subgroup, so order d is common.
    rng = random.Random(23)
    primes = [q for q in range(3, 3000) if is_probable_prime(q)]
    for _ in range(400):
        p = rng.choice(primes)
        d = rng.choice(divisors(factor(p - 1)))
        z = rng.randrange(1, p)
        if rng.random() < 0.5:
            z = pow(z, (p - 1) // d, p)
        order, acc = 1, z
        while acc != 1:
            order, acc = order + 1, acc * z % p
        try:
            SubgroupSpec(d=d, zeta=Residue(z, p))
            built = True
        except ValueError:
            built = False
        assert built == (order == d), (p, d, z, order)


def test_subgroup_spec_p_is_read_from_zeta():
    spec = subgroup_generator(31, 5)
    assert spec.p == spec.zeta.modulus == 31
    assert [f.name for f in dataclasses.fields(spec)] == ["d", "zeta"]
    with pytest.raises(TypeError):
        type(spec)(d=5, zeta=spec.zeta, p=37)


def test_subgroup_elements_refuses_huge_enumeration():
    # 167772161 = 5 * 2^25 + 1, so the order-2^23 subgroup exists
    spec = subgroup_generator(167772161, 1 << 23)
    with pytest.raises(ValueError, match="refusing to enumerate"):
        spec.elements()


def test_divisors_of_30():
    assert divisors(factor(30)) == [1, 2, 3, 5, 6, 10, 15, 30]
    assert divisors(factor(1)) == [1]
    assert divisors(factor(8)) == [1, 2, 4, 8]


def _squarefree(count):
    """n with `count` distinct prime factors, built without factoring."""
    primes = [q for q in range(2, 200) if is_probable_prime(q)][:count]
    return FactoredInteger(n=math.prod(primes), factors=[(q, 1) for q in primes])


def test_divisors_limit_guard():
    with pytest.raises(ValueError):
        divisors(_squarefree(21))  # 2^21 divisors
    with pytest.raises(ValueError):
        divisors(FactoredInteger(n=30, factors=[(2, 1), (3, 1)], residual=5))


def _oracle_near(factored, target_bits):
    """The nearest divisor by brute force; ties go to the smaller."""
    return min(divisors(factored),
               key=lambda v: (abs(math.log2(v) - target_bits), v))


def test_nearest_divisor_matches_brute_force():
    for n, target in ((30, 2.0), (360, 4.5), (2 * 3 ** 4 * 1009, 9.0),
                      (65537 - 1, 8.0), (9972, 5.3), (6, 1.0), (6, 10.0),
                      (1, 3.0), (30, -1.0)):
        f = factor(n)
        got = nearest_divisor(f, target)
        assert got == _oracle_near(f, target), (n, target)
        assert n % got == 0


def test_nearest_divisor_matches_brute_force_on_builtin_orders():
    for name in builtin_names():
        f = load_builtin(name).factors  # p-1 of the group order p
        for target in (0.0, 10.0, 33.3, 64.0, 100.5, f.n.bit_length() / 2):
            assert nearest_divisor(f, target) == _oracle_near(f, target), \
                (name, target)


def test_nearest_divisor_exact_ties_prefer_smaller():
    # powers of two have exact float logs, so ties are exact: at target 1.5
    # the divisors 2 and 4 are equidistant and 2 wins
    assert nearest_divisor(factor(2 ** 6), 1.5) == 2


@pytest.mark.parametrize("target", [math.inf, -math.inf, math.nan])
def test_nearest_divisor_refuses_a_size_that_is_not_finite(target):
    # every distance would be inf or nan, so no divisor is nearest
    with pytest.raises(ValueError, match="not finite"):
        nearest_divisor(factor(65536), target)


def test_nearest_divisor_meet_in_the_middle_path():
    # 10 distinct primes -> 1024 divisors, split 32 x 32
    n = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29
    f = factor(n)
    assert nearest_divisor(f, 15.0) == _oracle_near(f, 15.0)


def test_nearest_divisor_half_limit():
    # 41 primes split 21 + 20, so one half would hold 2^21 divisors
    with pytest.raises(ValueError):
        nearest_divisor(_squarefree(41), 50.0)
    with pytest.raises(ValueError):
        nearest_divisor(FactoredInteger(n=30, factors=[(2, 1), (3, 1)],
                                        residual=5), 2.0)


def test_search_prime_with_divisor_even_and_odd():
    rng = random.Random(77)
    for d in (1 << 24, 1048583, 256, 3 * 5 * 7):
        p = search_prime_with_divisor(d, 50, rng)
        assert p.bit_length() == 50
        assert (p - 1) % d == 0
        assert is_probable_prime(p)


def test_search_prime_with_divisor_is_deterministic():
    a = search_prime_with_divisor(1 << 20, 40, random.Random(5))
    b = search_prime_with_divisor(1 << 20, 40, random.Random(5))
    assert a == b


def test_search_prime_with_divisor_infeasible_width():
    with pytest.raises(ValueError):
        search_prime_with_divisor(1 << 49, 50, random.Random(0))
    with pytest.raises(ValueError):
        search_prime_with_divisor((1 << 49) + 1, 50, random.Random(0))


def test_search_prime_with_divisor_refuses_a_divisor_below_one():
    # d = 0 divided by zero; d = -4 blamed the bit width
    for d in (0, -4):
        with pytest.raises(ValueError,
                           match=r"^divisor d must be >= 1, got %d$" % d):
            search_prime_with_divisor(d, 20, random.Random(0))


def test_factor_p256_order_minus_one():
    # ~256-bit worked example: completes inside the default budgets
    p = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
    f = factor(p - 1)
    assert f.complete and f.verify()
    assert [q for q, _ in f.factors] == [
        2, 3, 71, 131, 373, 3407, 17449, 38189, 187019741, 622491383,
        1002328039319, 2624747550333869278416773953,
    ]
    assert f.factors[0] == (2, 4)
