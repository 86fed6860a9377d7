"""Success-probability numerics: exact, lower bound, trade-off, tables."""

import csv
import io
import math
from fractions import Fraction

import pytest

from subgroupdlp.catalog import (P256_TABLE_DIVISORS, builtin_names,
                                 load_builtin)
from subgroupdlp.cli import main
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
    assert math.copysign(1.0, success_lower_bound(256, 0, 65537)) == 1.0
    assert success_lower_bound(256, 0, 65537) == 0.0
    est = estimate(65537, 256, 0)
    assert est.exact == 0.0 and est.log2_m == float("-inf")


def test_full_group_saturates():
    # d = p-1: one thread always succeeds exactly, but the with-replacement
    # bound can only promise 1 - 1/e
    assert success_exact(65536, 1, 65537) == 1.0
    assert abs(success_lower_bound(65536, 1, 65537) - (1 - math.exp(-1))) < 1e-15
    assert success_lower_bound(65536, 200, 65537) == 1.0  # t >= 64 saturates
    assert success_exact(32768, 2000, 65537) == 1.0
    # below saturation (63 < 64 threads), m*log1p(-r) ~ -873: exp underflows
    # and the miss probability is a strict 0
    assert success_exact(1048573 - 2, 63, 1048573) == 1.0


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


def test_build_table_refuses_a_negative_thread_exponent():
    # 2^e threads: a negative e names no thread count
    for exponents, bad in (((-1,), -1), ((0, 1, -2), -2)):
        with pytest.raises(ValueError) as caught:
            build_table(65537, (16,), exponents)
        assert str(caught.value) == \
            "thread exponent must be >= 0, got %d" % bad


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
    # the headers are read from the divisors, byte for byte as when they
    # were read from estimates of m = 1
    assert text == ("log2 d                4.00        8.00\n"
                    "log2 sqrt(d)          2.00        4.00\n"
                    "log2 m        ")
    assert build_table(65537, (), ()).render_text() == (
        "log2 d        \nlog2 sqrt(d)  \nlog2 m        ")
    assert table.table() == (
        ("log2_d", "log2_m", "lower_bound", "exact", "log2_sqrt_d"), [])


def test_an_empty_grid_still_checks_its_divisors_and_p():
    for bad_d in (0, 65537):
        with pytest.raises(ValueError, match="need 1 <= d <= p-1"):
            build_table(65537, (16, bad_d), ())
    with pytest.raises(ValueError, match="p must be prime"):
        build_table(65535, (), ())


def test_table_csv_round_trips_floats(capsys):
    table = build_table(P256.p, P256_TABLE_DIVISORS, (45, 50, 53))
    assert main(["prob-table", "--curve", "P-256", "--d-list",
                 ",".join(map(str, P256_TABLE_DIVISORS)),
                 "--m-exponents", "45,50,53", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
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


# Exact-rational references for the bit-identity tests below: each ratio
# is float(Fraction(...)), the correctly rounded value, so the library's
# int divisions must match them with ==, not within a tolerance.  The
# exact formula has no saturation test, so these tests also show that
# success_exact's shortcut at d*m >= 64*(p-1) changes no value (each case
# keeps m below 2^1024, where m * log1p(-r) still converts m to float).
def _ref_lower_bound(d, m, p):
    if m == 0:
        return 0.0
    t = Fraction(d * m, p - 1)
    if t >= 64:
        return 1.0
    return -math.expm1(-float(t))


def _ref_exact(d, m, p):
    if m == 0:
        return 0.0
    r = float(Fraction(d, p - 1))
    if m == 1:
        return r
    if r >= 1.0:
        return 1.0
    t = m * math.log1p(-r)
    if t <= -745.0:
        return 1.0
    return -math.expm1(t)


def _ref_threads(d, p, target):
    guess = (Fraction(-math.log1p(-target)) * (p - 1) + d - 1) // d
    hi = max(int(guess), 1)
    while _ref_lower_bound(d, hi, p) < target:
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _ref_lower_bound(d, mid, p) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _assert_bit_identical(p, d, m):
    lower, exact = _ref_lower_bound(d, m, p), _ref_exact(d, m, p)
    assert success_lower_bound(d, m, p) == lower, (p, d, m)
    assert success_exact(d, m, p) == exact, (p, d, m)
    est = estimate(p, d, m)
    assert (est.lower_bound, est.exact) == (lower, exact), (p, d, m)


NIST_ORDERS = [load_builtin(name).p for name in builtin_names()]


def test_nist_orders_match_the_exact_rational_at_saturation():
    for p in NIST_ORDERS:
        edge = 64 * (p - 1)
        for d, m in ((1, edge - 1), (1, edge), (1, edge + 1),
                     (2, edge // 2 - 1), (2, edge // 2), (p - 1, 63),
                     (p - 1, 64), (p - 1, 65)):
            _assert_bit_identical(p, d, m)
        assert success_exact(1, edge, p) == 1.0


def test_nist_orders_match_the_exact_rational_on_a_thread_ladder():
    for p in NIST_ORDERS:
        bits = (p - 1).bit_length()
        # (p-1)//7 on P-256 is a ratio where float(d) / float(p-1)
        # rounds differently from the correctly rounded d / (p-1)
        for d in (1, 3, (p - 1) >> 40, (p - 1) // 7, (p - 1) // 3, p - 1):
            for m in [0, 1] + [1 << k for k in range(0, bits + 12, 3)]:
                _assert_bit_identical(p, d, m)


def test_threads_for_probability_matches_the_exact_rational():
    for p in NIST_ORDERS:
        for d in (1, 3, (p - 1) // 3, p - 1):
            for target in (1e-9, 0.5, 0.99):
                assert threads_for_probability(d, p, target) == \
                    _ref_threads(d, p, target), (p, d, target)


def test_paper_256_grids_match_the_exact_rational(capsys):
    presets = (((D1, D2, D3), (45, 50, 52, 53, 54, 55, 56)),
               ((D4,), (41, 42, 43, 44)),
               ((D5,), (33, 34, 35, 36, 37)))
    p = P256.p
    assert main(["prob-table", "--paper-256", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    want = [(d, e) for divisors, exponents in presets
            for e in exponents for d in divisors]
    assert len(rows) == len(want) == 30
    for row, (d, e) in zip(rows, want):
        assert float(row["lower_bound"]) == _ref_lower_bound(d, 1 << e, p)
        assert float(row["exact"]) == _ref_exact(d, 1 << e, p)
        assert float(row["log2_m"]) == e
    for divisors, exponents in presets:
        table = build_table(p, divisors, exponents)
        for i, e in enumerate(exponents):
            for j, d in enumerate(divisors):
                cell = table.cell(i, j)
                assert cell.lower_bound == _ref_lower_bound(d, 1 << e, p)
                assert cell.exact == _ref_exact(d, 1 << e, p)


def test_thread_counts_past_the_float_range_saturate(capsys):
    # 2^1024 threads cannot become a float; the probability is 1.0 anyway
    p = P256.p
    for m in (1 << 1024, 1 << 2000):
        assert success_exact(3, m, p) == 1.0
        assert success_lower_bound(3, m, p) == 1.0
        est = estimate(p, 3, m)
        assert (est.exact, est.lower_bound) == (1.0, 1.0)
    assert main(["prob-table", "--curve", "P-256", "--d-list", "3",
                 "--m-exponents", "1024"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == \
        ["1024", "1.00000"]
