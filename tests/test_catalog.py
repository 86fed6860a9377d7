"""Built-in curve records, consistency checks, and the key-audit facility."""

import dataclasses
import random

import pytest

from subgroupdlp import catalog
from subgroupdlp.bsgs import DegenerateKeyError, theorem_budget
from subgroupdlp.catalog import (DEFAULT_AUDIT_BUDGET, P256_TABLE_DIVISORS,
                                 P256_TABLE_GRIDS, CurveRecord, audit_key, builtin_names,
                                 load_builtin, record_from_order,
                                 record_from_params, verify_record)
from subgroupdlp.factoring import (FactoredInteger, divisors, factor,
                                   find_primitive_root, subgroup_generator)
from subgroupdlp.field import parse_int
from subgroupdlp.groups import (AdditiveOracleGroup, CountingGroup,
                                CurveGroup, CurveParams, desk_curve)
from subgroupdlp.probability import int_log2
from test_groups import P256

ALL_NAMES = ("P-192", "P-224", "P-256", "P-384", "P-521")

# Computed base-2 logs of each record's audit pair.  All match the usual
# quoted approximations except P-384's d1: the quoted 292.55 belongs to
# (p-1)/(3*d2), which fails d1*d2 = p-1; the exact cofactor is ~2^294.14.
EXPECTED_LOG2 = {
    "P-192": (109.02, 82.98),
    "P-224": (195.01, 28.99),
    "P-256": (130.13, 125.87),
    "P-384": (294.14, 89.86),
    "P-521": (440.55, 80.45),
}


def test_builtin_names():
    assert builtin_names() == ALL_NAMES


def test_load_builtin_case_insensitive_and_errors():
    assert load_builtin("p-256") is load_builtin("P-256")
    with pytest.raises(ValueError) as err:
        load_builtin("P-999")
    assert "P-256" in str(err.value)  # error lists what is available


@pytest.mark.parametrize("name", ALL_NAMES)
def test_builtin_records_verify(name):
    rec = load_builtin(name)
    report = verify_record(rec)
    assert report.passed, report.render_text()
    assert rec.params is None
    text = report.render_text()
    assert "[pass]" in text and "FAIL" not in text
    assert text.endswith("overall: pass")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_builtin_log2_values(name):
    rec = load_builtin(name)
    want1, want2 = EXPECTED_LOG2[name]
    assert abs(int_log2(rec.d1) - want1) < 0.01
    assert abs(int_log2(rec.d2) - want2) < 0.01


def test_p384_audit_pair_is_the_exact_cofactor():
    rec = load_builtin("P-384")
    assert rec.d1 * rec.d2 == rec.p - 1
    # the commonly quoted d1 value is one factor of 3 short
    quoted = rec.d1 // 3
    assert rec.d1 == 3 * quoted
    assert quoted * rec.d2 != rec.p - 1
    assert abs(int_log2(quoted) - 292.55) < 0.01


def test_p224_factor_list_includes_17():
    rec = load_builtin("P-224")
    assert (17, 1) in rec.factors.factors
    assert rec.d2 % 17 == 0
    assert rec.factors.product() == rec.p - 1


def test_p256_factor_list():
    rec = load_builtin("P-256")
    assert len(rec.factors.factors) == 12
    assert rec.factors.factors[-1] == (2624747550333869278416773953, 1)
    assert rec.q is not None
    # constants survive a round trip through the text parser
    assert parse_int(str(rec.p)) == rec.p
    assert parse_int(hex(rec.d1)) == rec.d1


def test_p256_table_divisors_structure():
    rec = load_builtin("P-256")
    d1, d2, d3, d4, d5 = P256_TABLE_DIVISORS
    for d in P256_TABLE_DIVISORS:
        assert (rec.p - 1) % d == 0
    assert d2 == 2 * d1 and d3 == 3 * d1
    assert d4 == 3407 * d1
    assert d5 == 131 * d4
    want_sqrt = (100.87, 101.37, 101.66, 106.73, 110.25)
    for d, want in zip(P256_TABLE_DIVISORS, want_sqrt):
        assert abs(int_log2(d) / 2 - want) < 0.01


def test_p256_table_grids_are_the_papers_three():
    d1, d2, d3, d4, d5 = P256_TABLE_DIVISORS
    assert P256_TABLE_GRIDS == (
        ((d1, d2, d3), (45, 50, 52, 53, 54, 55, 56)),
        ((d4,), (41, 42, 43, 44)),
        ((d5,), (33, 34, 35, 36, 37)),
    )
    assert "P256_TABLE_GRIDS" in catalog.__all__


def test_verify_record_catches_mutations():
    rec = load_builtin("P-256")

    def failed_names(r):
        report = verify_record(r)
        assert not report.passed
        return {c.name for c in report.checks if not c.passed}

    bad = failed_names(dataclasses.replace(rec, d1=rec.d1 + 1))
    assert "d1 * d2 equals p-1" in bad

    extra = FactoredInteger(
        n=rec.p - 1, factors=sorted(rec.factors.factors + [(1009, 1)]))
    bad = failed_names(dataclasses.replace(rec, factors=extra))
    assert "factor product equals p-1" in bad

    composite = FactoredInteger(
        n=rec.p - 1,
        factors=sorted(rec.factors.factors[2:] + [(48, 1)]))
    bad = failed_names(dataclasses.replace(rec, factors=composite))
    assert "listed factors are prime" in bad

    # 1 divides everything, so no count of it in d1 ends: the report must
    # still come back, with the pair not partitioning the list
    listed_1 = FactoredInteger(n=rec.p - 1,
                               factors=[(1, 1)] + rec.factors.factors)
    assert failed_names(dataclasses.replace(rec, factors=listed_1)) == {
        "listed factors are prime", "audit pair partitions the factors"}


def test_verify_record_shared_factor_pair():
    tiny_ok = CurveRecord(name="tiny", p=31, factors=factor(30), d1=10, d2=3)
    assert verify_record(tiny_ok).passed
    shared = CurveRecord(name="tiny", p=31, factors=factor(30), d1=6, d2=10)
    report = verify_record(shared)
    bad = {c.name for c in report.checks if not c.passed}
    assert "gcd(d1, d2) equals 1" in bad
    assert "audit pair partitions the factors" in bad


def test_verify_record_with_params():
    params = desk_curve()
    rec = record_from_params(params)
    report = verify_record(rec)
    assert report.passed
    assert any(c.name == "curve params match record" for c in report.checks)
    broken = dataclasses.replace(
        rec, params=dataclasses.replace(params, gy=(params.gy + 1) % params.q))
    report = verify_record(broken)
    bad = {c.name for c in report.checks if not c.passed}
    assert bad == {"curve params match record"}


def test_verify_record_catches_a_field_prime_the_params_do_not_have():
    params = desk_curve()
    rec = record_from_params(params)
    match = next(c for c in verify_record(rec).checks
                 if c.name == "curve params match record")
    assert match.passed and match.detail == ""
    report = verify_record(dataclasses.replace(rec, q=7919))
    bad = [c for c in report.checks if not c.passed]
    assert [c.name for c in bad] == ["curve params match record"]
    assert bad[0].detail == "params q = %d, record q = 7919" % params.q


def test_consistency_report_csv():
    report = verify_record(load_builtin("P-192"))
    header, rows = report.table()
    assert header == ("curve", "check", "passed", "detail")
    assert len(rows) == len(report.checks)
    # check names contain commas; each stays one field for the CSV writer
    assert all(len(row) == 4 and row[0] == "P-192" for row in rows)
    assert ("P-192", "gcd(d1, d2) equals 1", True, "") in rows


def test_record_from_params_desk_curve(monkeypatch):
    params = desk_curve()
    rec = record_from_params(params)
    # order - 1 = 1998 = 2 * 3^3 * 37: largest prime power 37 peels off
    assert (rec.d1, rec.d2) == (54, 37)
    assert rec.p == params.order and rec.q == params.q
    assert rec.params is params
    incomplete = FactoredInteger(n=1998, factors=[(2, 1)], residual=999)
    monkeypatch.setattr(catalog, "factor", lambda n: incomplete)
    with pytest.raises(ValueError, match="need the complete factorization"):
        record_from_params(params)


# y^2 = x^3 + x over F_5: (0, 0) has order 2, and the curve has 4 points
TWO = CurveParams(q=5, a=1, b=0, gx=0, gy=0, order=2, cofactor=2, name="two")


def test_an_order_of_two_audits_the_pair_one_one():
    # p - 1 = 1 has no prime power to peel off
    for rec in (record_from_params(TWO), record_from_order(2)):
        assert (rec.d1, rec.d2) == (1, 1)
        assert verify_record(rec).passed
        assert audit_key(rec, x=1).recommendation == "discard"
    report = audit_key(record_from_params(TWO),
                       point=CurveGroup(TWO).generator)
    assert [e.status for e in report.entries] == ["member", "member"]


def test_record_from_order_is_a_bare_order():
    rec = record_from_order(1999)
    assert (rec.p, rec.d1, rec.d2, rec.q, rec.params) == (1999, 54, 37,
                                                          None, None)
    assert rec.factors == factor(1998)
    assert rec.oracle_group == AdditiveOracleGroup(1999)
    with pytest.raises(ValueError, match="no point parameters"):
        rec.group
    with pytest.raises(ValueError, match="group order 1001 is not prime"):
        record_from_order(1001)


@pytest.mark.parametrize("p", (1999, 65537))
def test_a_record_s_subgroups_are_the_generator_s(p):
    rec = record_from_order(p)
    for d in divisors(factor(p - 1)):
        assert rec.subgroup(d) == subgroup_generator(p, d,
                                                     factored=factor(p - 1))


def test_audit_scalar_member_is_discarded():
    params = desk_curve()
    rec = record_from_params(params)
    H37 = subgroup_generator(rec.p, 37, factored=rec.factors)
    x = pow(H37.zeta.value, 5, rec.p)
    report = audit_key(rec, x=x)
    assert report.recommendation == "discard"
    by_d = {e.d: e for e in report.entries}
    assert by_d[37].status == "member"
    assert by_d[37].steps <= theorem_budget(37)
    assert all(e.feasible for e in report.entries)
    assert "recommendation: discard" in report.render_text()


def test_audit_scalar_non_member_is_kept():
    params = desk_curve()
    rec = record_from_params(params)
    root = find_primitive_root(rec.p, rec.factors)
    report = audit_key(rec, x=root.value)
    assert report.recommendation == "keep"
    assert all(e.status == "non-member" for e in report.entries)
    assert all(e.steps == theorem_budget(e.d) for e in report.entries)


def test_audit_point_form_matches_scalar_form():
    params = desk_curve()
    rec = record_from_params(params)
    group = CurveGroup(params)
    H37 = subgroup_generator(rec.p, 37, factored=rec.factors)
    for x in (pow(H37.zeta.value, 11, rec.p), 5, 1998):
        scalar = audit_key(rec, x=x)
        point = audit_key(rec, point=group.scalar_mul(x, group.generator))
        assert point.recommendation == scalar.recommendation
        assert [e.status for e in point.entries] == \
            [e.status for e in scalar.entries]
        assert all(e.mechanism == "point" for e in point.entries)
        assert all(e.mechanism == "scalar" for e in scalar.entries)


def test_audit_point_form_on_p256_matches_scalar_form():
    rec = dataclasses.replace(load_builtin("P-256"), params=P256)
    group = CurveGroup(P256)
    rng = random.Random(256)
    for d in (3, 16, 48, 71):
        zeta = subgroup_generator(rec.p, d, factored=rec.factors).zeta.value
        member = pow(zeta, rng.randrange(1, d), rec.p)
        non_member = rng.randrange(2, rec.p)
        assert pow(non_member, d, rec.p) != 1
        for x, status in ((member, "member"), (non_member, "non-member")):
            scalar = audit_key(rec, x=x, subgroups=(d,))
            point = audit_key(rec, point=group.scalar_mul(x, group.generator),
                              subgroups=(d,))
            (s,), (p,) = scalar.entries, point.entries
            assert (p.mechanism, s.mechanism) == ("point", "scalar")
            assert p.status == s.status == status, (d, x)
            assert p.steps == s.steps, (d, x)
            if status == "non-member":
                assert p.steps == theorem_budget(d)


def _multiplies(reports):
    """Counted multiplies behind `reports`, all from one record.

    Each entry's steps are the giant table's n+1 plus its baby steps; the
    table is built once per d, and each hit costs one re-verification.
    Building comb tables is not counted.
    """
    tables = {e.d: theorem_budget(e.d) // 2
              for r in reports for e in r.entries}
    return sum(tables.values()) + sum(
        e.steps - tables[e.d] + (e.status == "member")
        for r in reports for e in r.entries)


def test_point_audits_derive_group_and_root_once_per_record(monkeypatch):
    params = desk_curve()
    rec = record_from_params(params)
    group = CurveGroup(params)
    zeta = subgroup_generator(rec.p, 37, factored=rec.factors).zeta.value
    keys = (pow(zeta, 11, rec.p), 5, 1998, pow(zeta, 2, rec.p))
    points = [group.scalar_mul(x, group.generator) for x in keys]
    built, roots, oracles = [], [], []

    def counted_group(curve):
        built.append(curve)
        return CountingGroup(CurveGroup(curve))

    def counted_root(p, factors):
        roots.append(p)
        return find_primitive_root(p, factors)

    def counted_oracle(p):
        oracles.append(p)
        return CountingGroup(AdditiveOracleGroup(p))

    monkeypatch.setattr(catalog, "CurveGroup", counted_group)
    monkeypatch.setattr(catalog, "find_primitive_root", counted_root)
    monkeypatch.setattr(catalog, "AdditiveOracleGroup", counted_oracle)
    point_reports = [audit_key(rec, point=point) for point in points]
    scalar_reports = [audit_key(rec, x=x) for x in keys]
    assert verify_record(rec).passed
    assert (len(built), len(roots), len(oracles)) == (1, 1, 1)
    assert rec.group.scalar_muls == _multiplies(point_reports) > 0
    assert rec.oracle_group.scalar_muls == _multiplies(scalar_reports) > 0
    assert [[e.steps for e in r.entries] for r in point_reports] == \
        [[e.steps for e in r.entries] for r in scalar_reports]
    # a replaced record derives (and validates) everything again, giant
    # tables included
    fresh = dataclasses.replace(rec)
    report = audit_key(fresh, point=points[0])
    assert report == point_reports[0]
    assert (len(built), len(roots)) == (2, 2)
    assert fresh.group is not rec.group
    assert fresh.group.scalar_muls == _multiplies([report])
    bad = dataclasses.replace(rec, params=dataclasses.replace(params, gy=1))
    with pytest.raises(ValueError):
        audit_key(bad, point=points[0])


def test_audits_derive_each_subgroup_once_per_record(monkeypatch):
    # a record of its own: an earlier audit of the process-wide one may
    # already have derived these subgroups
    rec = dataclasses.replace(load_builtin("P-256"))
    calls = []

    def counted_subgroup(p, d, **kwargs):
        calls.append(d)
        return subgroup_generator(p, d, **kwargs)

    monkeypatch.setattr(catalog, "subgroup_generator", counted_subgroup)
    x = 1 + 3 * 16 * 71
    first = audit_key(rec, x=x, subgroups=(16, 71))
    second = audit_key(rec, x=x, subgroups=(71, 16))
    assert calls == [16, 71]
    assert second.entries == first.entries[::-1]
    assert audit_key(rec, x=x, subgroups=(16, 71)) == first
    assert calls == [16, 71]
    # a replaced record derives them anew
    fresh = dataclasses.replace(rec)
    assert audit_key(fresh, x=x, subgroups=(16, 71)) == first
    assert calls == [16, 71, 16, 71]
    assert fresh.subgroup(16) == rec.subgroup(16) == subgroup_generator(
        rec.p, 16, generator=rec.primitive_root)


def test_audit_default_pair_on_p256_is_inconclusive():
    rec = load_builtin("P-256")
    report = audit_key(rec, x=2)
    assert report.recommendation == "inconclusive"
    assert [e.status for e in report.entries] == ["infeasible", "infeasible"]
    assert all(not e.feasible and e.steps == 0 for e in report.entries)
    assert all(e.required_steps == theorem_budget(e.d)
               for e in report.entries)
    assert all(e.required_steps > DEFAULT_AUDIT_BUDGET
               for e in report.entries)
    text = report.render_text()
    assert "over budget" in text and "recommendation: inconclusive" in text


def test_audit_small_subgroups_of_p256():
    rec = load_builtin("P-256")
    # x = 1 lies in every subgroup: instant discard
    report = audit_key(rec, x=1, subgroups=(16, 3))
    assert report.recommendation == "discard"
    assert {e.status for e in report.entries} == {"member"}
    # a primitive root lies in no proper subgroup
    root = find_primitive_root(rec.p, rec.factors)
    report = audit_key(rec, x=root.value, subgroups=(16, 3))
    assert report.recommendation == "keep"
    assert {e.status for e in report.entries} == {"non-member"}
    header, rows = report.table()
    assert header == ("curve", "d", "log2_d", "mechanism", "feasible",
                      "status", "steps", "required_steps")
    assert [row[:2] for row in rows] == [("P-256", 16), ("P-256", 3)]
    assert all(len(row) == len(header) for row in rows)


def test_audit_mixed_feasibility_keeps_running():
    rec = load_builtin("P-256")
    report = audit_key(rec, x=1, subgroups=(rec.d1, 16))
    assert [e.status for e in report.entries] == ["infeasible", "member"]
    assert report.recommendation == "discard"
    root = find_primitive_root(rec.p, rec.factors)
    report = audit_key(rec, x=root.value, subgroups=(rec.d1, 16))
    assert [e.status for e in report.entries] == ["infeasible", "non-member"]
    assert report.recommendation == "keep"  # ran something, found nothing


def test_audit_budget_gate():
    # budget = theorem_budget(d) pays for the giant table and every baby
    # key, so a feasible subgroup always gets a verdict
    params = desk_curve()
    rec = record_from_params(params)
    for d in (1, 2, 27, 37, 54, 999, 1998):
        for x in (1, 2, 5, 77, 1000):
            report = audit_key(rec, x=x, budget=theorem_budget(d) - 1,
                               subgroups=(d,))
            assert report.entries[0].status == "infeasible"
            assert report.recommendation == "inconclusive"
            report = audit_key(rec, x=x, budget=theorem_budget(d),
                               subgroups=(d,))
            member = pow(x, d, rec.p) == 1
            assert report.entries[0].status == \
                ("member" if member else "non-member")
            assert report.entries[0].steps <= theorem_budget(d)
            assert report.recommendation == ("discard" if member else "keep")


def test_audit_argument_validation():
    rec = load_builtin("P-192")
    params = desk_curve()
    desk_rec = record_from_params(params)
    group = CurveGroup(params)
    with pytest.raises(ValueError):
        audit_key(rec)  # neither form
    with pytest.raises(ValueError):
        audit_key(desk_rec, x=3, point=group.generator)  # both forms
    # a builtin has no params: its group, the one refusal of point-form
    # work, raises for audit_key too
    no_points = ("P-192 carries no point parameters, which point-form work "
                 "needs: use desk or a curve file")
    for refused in (lambda: rec.group,
                    lambda: audit_key(rec, point=group.generator)):
        with pytest.raises(ValueError) as caught:
            refused()
        assert str(caught.value) == no_points
    with pytest.raises(ValueError,
                       match=r"^d = 7 does not divide p-1 = 1998$"):
        audit_key(desk_rec, x=3, subgroups=(7,))
    with pytest.raises(DegenerateKeyError):
        audit_key(desk_rec, x=0)
    with pytest.raises(DegenerateKeyError):
        audit_key(desk_rec, x=desk_rec.p)  # 0 mod p
