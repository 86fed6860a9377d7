"""Success-probability numerics: exact, lower bound, trade-off, tables."""

import csv
import io
import math
from fractions import Fraction

import pytest

from subgroupdlp.catalog import P256_TABLE_DIVISORS, load_builtin
from subgroupdlp.probability import (build_table, estimate, int_log2,
                                     success_exact, success_lower_bound,
                                     threads_for_probability)

P256 = load_builtin("P-256")
D1, D2, D3, D4, D5 = P256_TABLE_DIVISORS

# Frozen oracle values for the (divisor, thread-exponent) grid on the P-256
# group order, recomputed independently at 150-digit precision (mpmath); at
# these ratios the exact probability and the lower bound agree to ~1e-16,
# far below the 1e-4 comparison tolerance.
GRID_D123 = {  # exponent -> (d1 cell, d2 cell, d3 cell)
    45: (0.00162, 0.00324, 0.00486),
    50: (0.05064, 0.098711, 0.14435),
    52: (0.18768, 0.34013, 0.46398),
    53: (0.34013, 0.56458, 0.71268),
    54: (0.56458, 0.81040, 0.91745),
    55: (0.81040, 0.96405, 0.993184),
    56: (0.96405, 0.99871, 0.99995),
}
GRID_D4 = {41: 0.29234, 42: 0.49921, 43: 0.74921, 44: 0.93710}
GRID_D5 = {33: 0.16218, 34: 0.29805, 35: 0.50727, 36: 0.75721, 37: 0.94106}

# Tiny-ratio reference points (same 150-digit evaluation, 20 digits kept):
# naive evaluation via 1 - exp(-t) or (1 - r)**m collapses these to 0.0.
TINY_CASES = [
    (1, 1, 8.6361685571052093088e-78),
    (1, 1 << 20, 9.0556790809351519562e-72),
    (2624747550333869278416773953, 1 << 105, 9.1951367809488509061e-19),
    (2624747550333869278416773953, 1 << 140, 3.1594248906039331926e-8),
]


def test_success_grid_frozen_values():
    p = P256.p
    for e, cells in GRID_D123.items():
        for d, want in zip((D1, D2, D3), cells):
            assert abs(success_exact(d, 1 << e, p) - want) < 1e-4, (e, d)
            assert abs(success_lower_bound(d, 1 << e, p) - want) < 1e-4
    for e, want in GRID_D4.items():
        assert abs(success_exact(D4, 1 << e, p) - want) < 1e-4
        assert abs(success_lower_bound(D4, 1 << e, p) - want) < 1e-4
    for e, want in GRID_D5.items():
        assert abs(success_exact(D5, 1 << e, p) - want) < 1e-4
        assert abs(success_lower_bound(D5, 1 << e, p) - want) < 1e-4


def test_tiny_ratios_need_fraction_and_expm1():
    p = P256.p
    for d, m, want in TINY_CASES:
        exact = success_exact(d, m, p)
        lower = success_lower_bound(d, m, p)
        assert math.isclose(exact, want, rel_tol=1e-12), (d, m)
        assert math.isclose(lower, want, rel_tol=1e-12), (d, m)
        # negative control: the textbook formulas lose everything here
        r = float(Fraction(d, p - 1))
        assert 1.0 - (1.0 - r) ** m == 0.0  # r vanishes into 1.0
        t = float(Fraction(d * m, p - 1))
        if t < 1e-16:
            assert 1.0 - math.exp(-t) == 0.0


def test_single_thread_is_the_exact_ratio():
    for p, d in ((65537, 256), (31, 5), (P256.p, D5)):
        assert success_exact(d, 1, p) == float(Fraction(d, p - 1))


def test_zero_threads():
    assert success_exact(256, 0, 65537) == 0.0
    assert success_lower_bound(256, 0, 65537) == 0.0
    est = estimate(65537, 256, 0)
    assert est.exact == 0.0 and est.log2_m == float("-inf")


def test_full_group_saturates():
    # d = p-1: one thread always succeeds exactly, but the with-replacement
    # bound can only promise 1 - 1/e
    assert success_exact(65536, 1, 65537) == 1.0
    assert abs(success_lower_bound(65536, 1, 65537) - (1 - math.exp(-1))) < 1e-15
    assert success_lower_bound(65536, 200, 65537) == 1.0  # t >= 64 saturates
    assert success_exact(32768, 2000, 65537) == 1.0       # exp underflow


def test_exact_dominates_lower_bound_strictly_at_desk_scale():
    p = 65537
    for d in (2, 16, 256, 2048):
        for m in (1, 2, 5, 17, 128):
            lo = success_lower_bound(d, m, p)
            ex = success_exact(d, m, p)
            assert ex > lo, (d, m)  # gap ~ m*r^2/2 is representable here


def test_exact_dominates_lower_bound_within_ulp_at_scale():
    # at r ~ 2^-54 the true gap is below one ulp, so allow float ties
    p = P256.p
    for d in (D1, D3, D5):
        for e in (40, 50, 56):
            lo = success_lower_bound(d, 1 << e, p)
            ex = success_exact(d, 1 << e, p)
            assert ex >= lo - 1e-12


def test_monotone_in_m_and_d():
    p = 65537
    for d in (2, 256):
        rates = [success_exact(d, m, p) for m in range(0, 300, 7)]
        assert rates == sorted(rates)
    for m in (1, 64):
        rates = [success_exact(d, m, p) for d in (1, 2, 4, 1024, 65536)]
        assert rates == sorted(rates)


def test_tradeoff_product_invariance():
    # the lower bound depends on (d, m) only through d*m: halving the
    # subgroup and doubling the threads gives bit-identical floats
    p = P256.p
    for e in (50, 53, 55):
        assert success_lower_bound(D1, 1 << (e + 1), p) == \
            success_lower_bound(D2, 1 << e, p)
    assert success_lower_bound(65536, 8, 65537) == \
        success_lower_bound(4096, 128, 65537)
    # the exact probability obeys the same trade-off to first order
    a = success_exact(D1, 1 << 54, P256.p)
    b = success_exact(D2, 1 << 53, P256.p)
    assert abs(a - b) < 1e-4


def test_threads_for_probability_minimal():
    p = 65537
    for d in (16, 256, 4096):
        for target in (0.01, 0.25, 0.5, 0.9):
            m = threads_for_probability(d, p, target)
            assert success_lower_bound(d, m, p) >= target
            assert m == 1 or success_lower_bound(d, m - 1, p) < target
    # independent linear scan for a couple of small answers
    for d, target in ((4096, 0.5), (4096, 0.9)):
        want = next(m for m in range(1, 100)
                    if success_lower_bound(d, m, p) >= target)
        assert threads_for_probability(d, p, target) == want


def test_threads_for_probability_edges():
    assert threads_for_probability(256, 65537, 1e-300) == 1
    m = threads_for_probability(D5, P256.p, 0.5)
    assert (1 << 34) < m <= (1 << 35)
    assert success_lower_bound(D5, 1 << 35, P256.p) > 0.5
    for bad in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(ValueError):
            threads_for_probability(256, 65537, bad)


def test_input_validation():
    with pytest.raises(ValueError):
        success_exact(0, 1, 31)
    with pytest.raises(ValueError):
        success_exact(31, 1, 31)  # d > p-1
    with pytest.raises(ValueError):
        success_exact(5, -1, 31)
    with pytest.raises(ValueError):
        success_lower_bound(5, 1, 30)  # composite p
    # estimate and build_table must reject a composite p, even for a
    # table with no rows
    with pytest.raises(ValueError):
        estimate(30, 5, 1)
    with pytest.raises(ValueError):
        build_table(30, (5,), (0, 1))
    with pytest.raises(ValueError):
        build_table(30, (5,), ())
    with pytest.raises(ValueError):
        build_table(31, (31,), (0,))  # d > p-1 in a cell
    with pytest.raises(ValueError):
        threads_for_probability(5, 30, 0.5)


def test_int_log2():
    mpmath = pytest.importorskip("mpmath")
    assert int_log2(1) == 0.0
    assert int_log2(2 ** 1000) == 1000.0
    assert math.isclose(int_log2(3), math.log2(3), rel_tol=1e-15)
    n = 7 ** 500  # 1404 bits: past the float range, not math.log2's
    mpmath.mp.dps = 50
    want = float(mpmath.log(n, 2))
    assert math.isclose(int_log2(n), want, rel_tol=1e-14)
    with pytest.raises(ValueError):
        int_log2(0)


def test_estimate_field_relations():
    est = estimate(65537, 4096, 32)
    assert est.log2_d == 12.0 and est.log2_m == 5.0
    assert est.log2_sqrt_d == 6.0
    assert est.exact == success_exact(4096, 32, 65537)
    assert est.lower_bound == success_lower_bound(4096, 32, 65537)


def test_build_table_shape_and_cells():
    table = build_table(65537, (16, 256), (0, 3, 5))
    assert len(table.rows) == 3 and all(len(r) == 2 for r in table.rows)
    cell = table.cell(1, 1)
    assert cell.d == 256 and cell.m == 8
    assert cell.exact == success_exact(256, 8, 65537)


def test_table_text_rendering():
    table = build_table(65537, (65536,), (0,))
    text = table.render_text()
    lines = text.splitlines()
    assert lines[0].startswith("log2 d")
    assert lines[1].startswith("log2 sqrt(d)")
    assert lines[2].startswith("log2 m")
    assert "1.00000" in lines[3]  # exact probability, not the 0.63 bound
    assert "8.00" in lines[1]     # sqrt header: log2 sqrt(65536)
    # header values are computed from the divisors, never transcribed
    paper = build_table(P256.p, (D1, D2, D3), (45,))
    header = paper.render_text().splitlines()[1]
    assert "100.87" in header
    assert "101.86" not in header
    assert "101.37" in header and "101.66" in header


def test_table_empty_exponent_list():
    table = build_table(65537, (16, 256), ())
    text = table.render_text()
    assert len(text.splitlines()) == 3  # two header lines + the m label
    assert "4.00" in text.splitlines()[1]
    csv_text = table.render_csv()
    assert csv_text.splitlines() == [
        "log2_d,log2_m,lower_bound,exact,log2_sqrt_d"]


def test_table_csv_round_trips_floats():
    table = build_table(P256.p, P256_TABLE_DIVISORS, (45, 50, 53))
    rows = list(csv.DictReader(io.StringIO(table.render_csv())))
    assert len(rows) == 15
    k = 0
    for i in range(3):
        for j in range(5):
            est = table.cell(i, j)
            row = rows[k]
            k += 1
            assert float(row["exact"]) == est.exact
            assert float(row["lower_bound"]) == est.lower_bound
            assert float(row["log2_d"]) == est.log2_d
            assert float(row["log2_sqrt_d"]) == est.log2_sqrt_d
