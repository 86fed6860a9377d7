"""Built-in curve records, consistency checks, and the key-audit facility."""

import csv
import dataclasses
import io
import random

import pytest

from subgroupdlp.bsgs import DegenerateKeyError, theorem_budget
from subgroupdlp.catalog import (DEFAULT_AUDIT_BUDGET, P256_TABLE_DIVISORS,
                                 CurveRecord, audit_key, builtin_names,
                                 load_builtin, record_from_params,
                                 verify_record)
from subgroupdlp.factoring import (FactoredInteger, factor,
                                   find_primitive_root, subgroup_generator)
from subgroupdlp.field import parse_int
from subgroupdlp.groups import CurveGroup, CurveParams, desk_curve
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


def test_verify_record_catches_mutations():
    rec = load_builtin("P-256")

    def failed_names(r):
        report = verify_record(r)
        assert not report.passed
        return {c.name for c in report.checks if not c.passed}

    bad = failed_names(dataclasses.replace(rec, d1=rec.d1 + 1))
    assert "d1 * d2 equals p-1" in bad

    extra = FactoredInteger(
        n=rec.p - 1, factors=sorted(rec.factors.factors + [(1009, 1)]),
        complete=True, residual=1)
    bad = failed_names(dataclasses.replace(rec, factors=extra))
    assert "factor product equals p-1" in bad

    composite = FactoredInteger(
        n=rec.p - 1,
        factors=sorted(rec.factors.factors[2:] + [(48, 1)]),
        complete=True, residual=1)
    bad = failed_names(dataclasses.replace(rec, factors=composite))
    assert "listed factors are prime" in bad


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
    rec = record_from_params(params, factor(params.order - 1))
    report = verify_record(rec)
    assert report.passed
    assert any(c.name == "curve params match record" for c in report.checks)
    broken = dataclasses.replace(
        rec, params=dataclasses.replace(params, gy=(params.gy + 1) % params.q))
    report = verify_record(broken)
    bad = {c.name for c in report.checks if not c.passed}
    assert bad == {"curve params match record"}


def test_consistency_report_csv():
    report = verify_record(load_builtin("P-192"))
    text = report.render_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["curve", "check", "passed", "detail"]
    assert len(rows) == 1 + len(report.checks)
    # check names contain commas; every row must still parse to 4 fields
    assert all(len(row) == 4 and row[0] == "P-192" for row in rows[1:])
    assert any(row[1] == "gcd(d1, d2) equals 1" for row in rows[1:])


def test_record_from_params_desk_curve():
    params = desk_curve()
    rec = record_from_params(params, factor(params.order - 1))
    # order - 1 = 1998 = 2 * 3^3 * 37: largest prime power 37 peels off
    assert (rec.d1, rec.d2) == (54, 37)
    assert rec.p == params.order and rec.q == params.q
    assert rec.params is params
    incomplete = FactoredInteger(n=1998, factors=[(2, 1)], complete=False,
                                 residual=999)
    with pytest.raises(ValueError):
        record_from_params(params, incomplete)
    with pytest.raises(ValueError):
        record_from_params(params, factor(1999))  # wrong n


def test_audit_scalar_member_is_discarded():
    params = desk_curve()
    rec = record_from_params(params, factor(params.order - 1))
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
    rec = record_from_params(params, factor(params.order - 1))
    root = find_primitive_root(rec.p, rec.factors)
    report = audit_key(rec, x=root.value)
    assert report.recommendation == "keep"
    assert all(e.status == "non-member" for e in report.entries)
    assert all(e.steps == theorem_budget(e.d) for e in report.entries)


def test_audit_point_form_matches_scalar_form():
    params = desk_curve()
    rec = record_from_params(params, factor(params.order - 1))
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
    lines = report.render_csv().splitlines()
    assert lines[0] == \
        "curve,d,log2_d,mechanism,feasible,status,steps,required_steps"
    assert len(lines) == 3


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
    params = desk_curve()
    rec = record_from_params(params, factor(params.order - 1))
    report = audit_key(rec, x=5, budget=theorem_budget(37) - 1,
                       subgroups=(37,))
    assert report.entries[0].status == "infeasible"
    assert report.recommendation == "inconclusive"
    report = audit_key(rec, x=5, budget=theorem_budget(37), subgroups=(37,))
    assert report.entries[0].status in ("member", "non-member")


def test_audit_argument_validation():
    rec = load_builtin("P-192")
    params = desk_curve()
    desk_rec = record_from_params(params, factor(params.order - 1))
    group = CurveGroup(params)
    with pytest.raises(ValueError):
        audit_key(rec)  # neither form
    with pytest.raises(ValueError):
        audit_key(desk_rec, x=3, point=group.generator)  # both forms
    with pytest.raises(ValueError):
        audit_key(rec, point=group.generator)  # builtin has no params
    with pytest.raises(ValueError):
        audit_key(desk_rec, x=3, subgroups=(7,))  # 7 does not divide 1998
    with pytest.raises(DegenerateKeyError):
        audit_key(desk_rec, x=0)
    with pytest.raises(DegenerateKeyError):
        audit_key(desk_rec, x=desk_rec.p)  # 0 mod p
