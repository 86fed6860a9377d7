"""End-to-end CLI behavior: arguments, output formats, exit codes."""

import argparse
import csv
import dataclasses
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from subgroupdlp import catalog
from subgroupdlp.bsgs import theorem_budget
from subgroupdlp.catalog import (P256_TABLE_DIVISORS, load_builtin,
                                 record_from_order)
from subgroupdlp.cli import DATA_DIR_ENV, build_parser, main
from subgroupdlp.factoring import (FactoredInteger, nearest_divisor,
                                   subgroup_generator)
from subgroupdlp.groups import (CountingGroup, CurveGroup, desk_curve,
                                format_curve_params)
from subgroupdlp.parallel import draw_multipliers
from subgroupdlp.probability import int_log2

ROOT = Path(__file__).resolve().parent.parent
H5_MEMBERS = {1, 2, 4, 8, 16}  # the order-5 subgroup of (Z/31Z)*


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


def _campaign_seed(x, want_hit):
    """First seed whose single multiplier does/doesn't map x into H5."""
    for s in range(500):
        y = draw_multipliers(31, 1, s)[0]
        if (x * y % 31 in H5_MEMBERS) == want_hit:
            return s
    raise AssertionError("no such seed in range")


def test_solve_member(run):
    code, out, _ = run("solve", "--oracle-p", "31", "--d", "5", "--x", "8")
    assert code == 0
    assert "Found x = 8" in out
    assert "budget 8" in out and "elapsed" in out


def test_solve_non_member(run):
    code, out, _ = run("solve", "--oracle-p", "31", "--d", "5", "--x", "3")
    assert code == 1
    assert "outcome: NotInSubgroup" in out


def test_solve_on_an_order_whose_p_minus_1_holds_a_large_prime_squared(run):
    # p - 1 = 2 * 3 * 23 * (2^61 - 1)^2: factored at the square root
    code, out, err = run("solve", "--oracle-p",
                         "733733853673273561206488826731770675339",
                         "--d", "6", "--x", "5")
    assert (code, err) == (1, "")
    assert "outcome: NotInSubgroup" in out and "steps: 8 " in out


def test_solve_rejects_bad_divisor(run):
    code, out, err = run("solve", "--oracle-p", "31", "--d", "7", "--x", "3")
    assert code == 2 and out == "" and "error:" in err


def test_solve_usage_errors(run):
    base = ("solve", "--oracle-p", "31", "--d", "5")
    assert run(*base)[0] == 2                         # neither --x nor --q
    assert run(*base, "--x", "3", "--q", "8")[0] == 2  # both
    assert run("solve", "--d", "5", "--x", "3")[0] == 2  # no group at all
    assert run("solve", "--oracle-p", "31", "--curve", "desk",
               "--d", "5", "--x", "3")[0] == 2        # two groups
    assert run(*base[:3], "--x", "3")[0] == 2         # no --d/--target-bits


def test_solve_rejects_a_negative_budget(run):
    base = ("solve", "--oracle-p", "31", "--d", "5", "--x", "3")
    for campaign in ((), ("--m", "4")):
        code, out, err = run(*base, "--budget", "-3", *campaign)
        assert code == 2 and out == "" and "step cap must be >= 0" in err
    # a zero budget still runs: it stops before the first multiply
    code, out, _ = run(*base, "--budget", "0")
    assert code == 1 and "outcome: Undecided" in out and "steps: 0 " in out
    code, out, _ = run(*base, "--budget", "0", "--m", "4")
    assert code == 1 and "outcome: Undecided" in out


def test_a_capped_campaign_that_misses_is_undecided_not_failed(run):
    # uncapped, seed 1 finds x = 8 on thread 2 (y = 16, z = 4 in H)
    base = ("solve", "--oracle-p", "31", "--d", "5", "--x", "8", "--m", "3",
            "--seed", "1")
    code, out, _ = run(*base)
    assert code == 0 and "Found x = 8 on thread 2" in out
    # a budget below the plan's 2 baby keys proves nothing on any thread
    code, out, _ = run(*base, "--budget", "0")
    assert code == 1 and "outcome: Undecided" in out
    code, out, _ = run(*base, "--budget", "0", "--format", "csv")
    assert code == 1 and out.splitlines()[1].startswith("Undecided,")


def test_solve_target_bits(run):
    code, out, _ = run("solve", "--oracle-p", "65537", "--target-bits", "8",
                       "--x", "3")
    assert code == 1  # 3 generates everything; not in the 2^8 subgroup
    assert "d = 256" in out


def test_solve_by_target_element(run):
    code, out, _ = run("solve", "--oracle-p", "31", "--d", "5", "--q", "16")
    assert code == 0
    assert "Found x = 16" in out


def test_solve_count_ops(run):
    code, out, _ = run("solve", "--oracle-p", "31", "--d", "5", "--x", "8",
                       "--count-ops")
    assert code == 0
    steps = int(next(line for line in out.splitlines()
                     if line.startswith("steps:")).split()[1])
    measured = int(next(line for line in out.splitlines()
                        if line.startswith("measured ops:")).split()[2])
    # forming Q from --x plus the final re-verification are the only
    # multiplications outside the counted search steps
    assert measured == steps + 2


def test_solve_csv_reruns_byte_identical(run):
    args = ("solve", "--oracle-p", "65537", "--d", "256", "--x", "12345",
            "--m", "4", "--seed", "7", "--format", "csv")
    code1, out1, _ = run(*args)
    code2, out2, _ = run(*args)
    assert out1 == out2 and code1 == code2
    lines = out1.splitlines()
    assert lines[0] == "outcome,x,a,b,index,steps,d,m,p,lower_bound,exact"
    outcome = lines[1].split(",")[0]
    assert outcome in ("Found", "Failed")
    assert code1 == (0 if outcome == "Found" else 1)


def test_solve_single_csv_steps(run):
    code, out, _ = run("solve", "--oracle-p", "65537", "--d", "256",
                       "--x", "3", "--format", "csv")
    assert code == 1
    row = out.splitlines()[1].split(",")
    assert row[0] == "NotInSubgroup"
    assert int(row[5]) == theorem_budget(256)
    assert row[1] == "" and row[2] == ""  # no witness on a negative


def test_solve_campaign_outcomes(run):
    lucky = _campaign_seed(3, want_hit=True)
    unlucky = _campaign_seed(3, want_hit=False)
    code, out, _ = run("solve", "--oracle-p", "31", "--d", "5", "--x", "3",
                       "--m", "1", "--seed", str(lucky))
    assert code == 0
    assert "Found x = 3 on thread 0" in out
    code, out, _ = run("solve", "--oracle-p", "31", "--d", "5", "--x", "3",
                       "--m", "1", "--seed", str(unlucky))
    assert code == 1
    assert "Failed" in out


def test_solve_campaign_report_and_count_ops(run):
    code, out, _ = run("solve", "--oracle-p", "65537", "--d", "4096",
                       "--x", "12345", "--m", "8", "--seed", "1",
                       "--count-ops")
    assert code == 0
    lines = {line.split(":")[0]: line for line in out.splitlines()}
    assert lines["campaign"] == "campaign: m = 8, seed = 1"
    assert lines["outcome"] == ("outcome: Found x = 12345 on thread 6 "
                                "(y = 17278, z = 39512)")
    assert lines["steps"] == ("steps: 302 total over 7 threads (26 baby "
                              "keys per thread, 158-key giant table)")
    # forming Q from --x, every counted search step and the winner's
    # re-verification
    assert lines["measured ops"] == "measured ops: 304 scalar_mul, 0 add"


def test_solve_campaign_workers_same_result(run):
    # campaigns run in the calling process: the report is a function of the
    # seed alone, so two runs agree on everything but the elapsed: line
    base = ("solve", "--oracle-p", "65537", "--d", "4096", "--x", "777",
            "--m", "8", "--seed", "3")
    code1, out1, _ = run(*base)
    code2, out2, _ = run(*base)
    assert code1 == code2

    def report(out):
        return [line for line in out.splitlines()
                if not line.startswith("elapsed:")]

    assert report(out1) == report(out2)
    assert "workers" not in out1


def test_solve_campaign_count_ops_across_workers(run):
    base = ("solve", "--oracle-p", "65537", "--d", "4096", "--x", "12345",
            "--m", "8", "--seed", "1", "--count-ops")
    outs = [run(*base)[1].splitlines() for _ in range(2)]

    def steady(out):
        return [line for line in out if not line.startswith("elapsed:")]

    # no thread runs ahead of the winner, so measured ops repeat exactly
    assert steady(outs[0]) == steady(outs[1])
    lines = {line.split(":")[0]: line.split() for line in outs[0]}
    total_steps = int(lines["steps"][1])
    measured = int(lines["measured ops"][2])
    # forming Q from --x, every counted search step and the winner's
    # re-verification
    assert measured == 1 + total_steps + 1 == 304


@pytest.mark.parametrize("spec", ["4:2:-1", "56:45:-1", "2:4:0", "5:3",
                                  "1:2:3:4"])
def test_bad_exponent_ranges_exit_2(run, spec):
    code, out, err = run("prob-table", "--p", "65537", "--d-list", "16",
                         "--m-exponents", spec)
    assert code == 2 and out == ""
    assert "bad exponent range %r" % spec in err


def test_exponent_specs_take_hex(run):
    def grid(spec):
        code, out, err = run("prob-table", "--p", "65537", "--d-list", "16",
                             "--m-exponents", spec)
        assert (code, err) == (0, "")
        return out

    assert grid("0x2d") == grid("45")
    assert grid("1:0x3") == grid("1:3")


def test_a_non_integer_exponent_is_named_and_exits_2(run):
    for spec, part in (("abc", "abc"), ("1,2:x", "x")):
        code, out, err = run("prob-table", "--p", "65537", "--d-list", "16",
                             "--m-exponents", spec)
        assert (code, out) == (2, "")
        assert err == "error: argument --m-exponents: %s\n" % (INTEGER % part)


def test_solve_seed_takes_hex(run):
    def report(seed):
        code, out, err = run("solve", "--oracle-p", "65537", "--d", "4096",
                             "--x", "777", "--m", "8", "--seed", seed)
        assert err == ""
        return code, re.sub(r"elapsed: [0-9.]+", "elapsed: <s>", out)

    hex_seed = report("0x10")
    assert hex_seed == report("16") and "seed = 16" in hex_seed[1]
    assert run("solve", "--oracle-p", "65537", "--d", "4096", "--x", "777",
               "--m", "8", "--seed", "1.5") == \
        (2, "", "error: argument --seed: %s\n" % (INTEGER % "1.5"))


INTEGER = "%r is not an integer (decimal or 0x hex)"
BITS = "%r is not a number of bits (decimal, e.g. 128 or 127.5)"


BAD_NUMBERS = [
    (("solve", "--oracle-p", "31z", "--d", "5", "--x", "3"),
     "--oracle-p", INTEGER % "31z"),
    (("solve", "--oracle-p", "31", "--d", "abc", "--x", "3"),
     "--d", INTEGER % "abc"),
    (("solve", "--oracle-p", "31", "--d", "5", "--x", "3.0"),
     "--x", INTEGER % "3.0"),
    (("solve", "--oracle-p", "31", "--d", "5", "--q", "0xg"),
     "--q", INTEGER % "0xg"),
    (("solve", "--oracle-p", "31", "--d", "5", "--q", "1,6"),
     "--q", "'1,6' is not one integer, as oracle group elements are "
            "written"),
    (("solve", "--curve", "desk", "--d", "37", "--q", "1,y"),
     "--q", INTEGER % "y"),
    (("solve", "--oracle-p", "31", "--d", "5", "--x", "3", "--m", "zz"),
     "--m", INTEGER % "zz"),
    (("solve", "--oracle-p", "31", "--d", "5", "--x", "3", "--budget",
      "1e3"), "--budget", INTEGER % "1e3"),
    (("solve", "--oracle-p", "31", "--d", "5", "--x", "3", "--m", "2",
      "--seed", "abc"), "--seed", INTEGER % "abc"),
    (("solve", "--oracle-p", "65537", "--target-bits", "z", "--x", "3"),
     "--target-bits", BITS % "z"),
    (("solve", "--oracle-p", "65537", "--target-bits", "nan", "--x", "3"),
     "--target-bits", BITS % "nan"),
    (("prob-table", "--p", "65537x", "--d-list", "16", "--m-exponents", "1"),
     "--p", INTEGER % "65537x"),
    (("prob-table", "--p", "65537", "--d-list", "16,q", "--m-exponents",
      "1"), "--d-list", INTEGER % "q"),
    (("prob-table", "--p", "65537", "--target-bits-list", "4,inf",
      "--m-exponents", "1"), "--target-bits-list", BITS % "inf"),
    (("keycheck", "--curve", "desk", "--x", "five"), "--x", INTEGER % "five"),
    (("keycheck", "--curve", "desk", "--x", "5", "--d", "37,a"),
     "--d", INTEGER % "a"),
    (("keycheck", "--curve", "desk", "--x", "5", "--budget", "many"),
     "--budget", INTEGER % "many"),
    (("factor", "12x"), "n", INTEGER % "12x"),
    (("factor", "30", "--budget", "0b1"), "--budget", INTEGER % "0b1"),
    (("solve", "--curve", "desk", "--d", "54", "--q", "1"),
     "--q", "'1' is not a point x,y, as curve group elements are written"),
    (("keycheck", "--curve", "desk", "--q", "1"),
     "--q", "'1' is not a point x,y, as curve group elements are written"),
]


@pytest.mark.parametrize("argv, option, message", BAD_NUMBERS,
                         ids=["%s %s" % (argv[0], option)
                              for argv, option, _ in BAD_NUMBERS])
def test_a_bad_number_names_its_option(run, argv, option, message):
    assert run(*argv) == (2, "", "error: argument %s: %s\n"
                          % (option, message))


def test_solve_degenerate_exponent(run):
    # x = 0 is refused where the instance is built, by solve and keycheck
    for argv in (("solve", "--oracle-p", "31", "--d", "5", "--x", "0"),
                 ("keycheck", "--curve", "desk", "--x", "0")):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err == "error: Q is the identity; x = 0 is not a unit\n"


def test_solve_on_desk_curve_by_name(run):
    code, out, _ = run("solve", "--curve", "desk", "--d", "27", "--x", "5")
    assert code in (0, 1)
    assert "group: curve (order 1999)" in out


# the one refusal of point-form work, made by the curve record
NO_POINTS = ("error: P-256 carries no point parameters, which point-form "
             "work needs: use desk or a curve file\n")


def test_solve_named_builtin_has_no_points(run):
    assert run("solve", "--curve", "P-256", "--d", "16", "--x", "5") == \
        (2, "", NO_POINTS)


def test_an_unfactorable_curve_order_is_refused_by_the_record(
        run, monkeypatch):
    # desk, as if factor gave up on its p-1 = 1998
    monkeypatch.setattr(catalog, "factor", lambda n: FactoredInteger(
        n=n, factors=[], residual=n))
    for argv in (("solve", "--curve", "desk", "--d", "27", "--x", "5"),
                 ("keycheck", "--curve", "desk", "--x", "5"),
                 ("audit", "desk")):
        assert run(*argv) == (2, "", "error: need the complete "
                              "factorization of order-1\n")


def test_solve_curve_file_and_point_target(run, tmp_path):
    params = desk_curve()
    path = tmp_path / "desk.curve"
    path.write_text(format_curve_params(params))
    group = CurveGroup(params)
    H = subgroup_generator(params.order, 27)
    x = pow(H.zeta.value, 4, params.order)
    qx, qy = group.scalar_mul(x, group.generator).data
    code, out, _ = run("solve", "--curve", str(path), "--d", "27",
                       "--q", "%d,%d" % (qx, qy))
    assert code == 0
    assert ("Found x = %d" % x) in out


def test_an_order_two_curve_audits_and_solves_the_trivial_subgroup(
        run, tmp_path):
    # y^2 = x^3 + x over F_5, base point (0, 0) of order 2: p - 1 = 1 has
    # no prime power, so the record's audit pair is (1, 1)
    path = tmp_path / "two.curve"
    path.write_text("q = 5\na = 1\nb = 0\ngx = 0\ngy = 0\norder = 2\n"
                    "cofactor = 2\nname = two\n")
    code, out, err = run("keycheck", "--curve", str(path), "--x", "1")
    assert (code, err) == (0, "")
    assert out.count("[scalar] member") == 2
    code, out, err = run("solve", "--curve", str(path), "--d", "1",
                         "--x", "1")
    assert (code, err) == (0, "")
    assert "outcome: Found x = 1  (a = 0, b = 0)" in out
    for target in ("--oracle-p", "2"), ("--curve", str(path)):
        code, out, _ = run("solve", *target, "--target-bits", "3",
                           "--x", "1", "--m", "2")
        assert code == 0 and "subgroup: d = 1 (log2 0.00), zeta = 1" in out
    code, out, _ = run("audit", str(path))
    assert code == 0 and "log2 d1 = 0.00, log2 d2 = 0.00" in out


def test_curve_file_resolves_via_data_dir(run, tmp_path, monkeypatch):
    (tmp_path / "desk.curve").write_text(format_curve_params(desk_curve()))
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    code, out, _ = run("solve", "--curve", "desk.curve", "--d", "27",
                       "--x", "5")
    assert code in (0, 1)
    assert "order 1999" in out


def test_prob_table_preset_csv(run):
    code, out, _ = run("prob-table", "--paper-256", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 30  # 3x7 + 1x4 + 1x5 cells, one shared header
    d1, d4, d5 = (P256_TABLE_DIVISORS[i] for i in (0, 3, 4))
    by_key = {(round(float(r["log2_d"]), 4), float(r["log2_m"])): r
              for r in rows}
    cell = by_key[(round(int_log2(d1), 4), 54.0)]
    assert abs(float(cell["exact"]) - 0.56458) < 1e-4
    assert abs(float(cell["lower_bound"]) - 0.56458) < 1e-4
    cell = by_key[(round(int_log2(d4), 4), 42.0)]
    assert abs(float(cell["exact"]) - 0.49921) < 1e-4
    cell = by_key[(round(int_log2(d5), 4), 35.0)]
    assert abs(float(cell["exact"]) - 0.50727) < 1e-4


def test_prob_table_preset_text(run):
    code, out, _ = run("prob-table", "--paper-256")
    assert code == 0
    assert "100.87" in out          # sqrt header is computed, not copied
    assert "101.86" not in out
    assert "110.25" in out
    assert "0.56458" in out and "0.50727" in out
    assert out.count("log2 sqrt(d)") == 3  # three grids


def test_prob_table_explicit(run):
    code, out, _ = run("prob-table", "--p", "65537", "--d-list", "65536",
                       "--m-exponents", "0")
    assert code == 0
    assert "1.00000" in out  # one draw from the full unit group always hits


def test_prob_table_empty_exponents(run):
    code, out, _ = run("prob-table", "--p", "65537", "--d-list", "16,256",
                       "--m-exponents", "")
    assert code == 0
    assert len(out.strip().splitlines()) == 3  # headers only


def test_prob_table_rejects_non_divisors(run):
    code, out, err = run("prob-table", "--p", "1999", "--d-list", "5,1998",
                         "--m-exponents", "1")
    assert (code, out) == (2, "")
    assert err == "error: d = 5 does not divide p-1 = 1998\n"
    code, out, err = run("prob-table", "--curve", "P-256", "--d-list", "5",
                         "--m-exponents", "1")
    assert (code, out) == (2, "")
    assert err == ("error: d = 5 does not divide p-1 = %d\n"
                   % (load_builtin("P-256").p - 1))
    code, out, _ = run("prob-table", "--p", "1999", "--d-list", "1,1998",
                       "--m-exponents", "1")
    assert code == 0 and "1.00000" in out


def test_prob_table_refuses_a_negative_thread_exponent(run):
    for spec, bad in (("-1", -1), ("-2:0", -2)):
        code, out, err = run("prob-table", "--p", "65537", "--d-list", "16",
                             "--m-exponents=" + spec)
        assert (code, out) == (2, "")
        assert err == "error: thread exponent must be >= 0, got %d\n" % bad


def test_prob_table_resolves_curve_names_like_solve(run, tmp_path):
    # desk and a desk curve file give the grid of their order p = 1999
    path = tmp_path / "desk.curve"
    path.write_text(format_curve_params(desk_curve()))
    for divisors in (("--d-list", "27,37"), ("--target-bits-list", "5,9")):
        grid = ("--m-exponents", "0:2") + divisors
        expected = run("prob-table", "--p", "1999", *grid)
        assert expected[0] == 0 and expected[1]
        for curve in ("desk", str(path)):
            assert run("prob-table", "--curve", curve, *grid) == expected


def test_prob_table_reads_a_p_targets_divisors_from_its_record(run):
    factors = record_from_order(1999).factors
    divisors = [nearest_divisor(factors, bits) for bits in (3, 5)]
    assert divisors == [9, 37]
    grid = ("--m-exponents", "1,2", "--format", "csv")
    expected = run("prob-table", "--p", "1999", "--d-list",
                   ",".join(map(str, divisors)), *grid)
    assert expected[0] == 0 and expected[1]
    assert run("prob-table", "--p", "1999", "--target-bits-list", "3,5",
               *grid) == expected


def test_prob_table_refuses_a_composite_p_in_the_records_words(run):
    # --target-bits-list builds the record, which names the group order
    assert run("prob-table", "--p", "33", "--target-bits-list", "2",
               "--m-exponents", "1") == (
        2, "", "error: group order 33 is not prime\n")
    # --d-list builds no record: the grid refuses p
    assert run("prob-table", "--p", "33", "--d-list", "2",
               "--m-exponents", "1") == (2, "", "error: p must be prime\n")


def test_an_unfactorable_p_is_refused_by_the_record(run, monkeypatch):
    # 1999, as if factor gave up on its p-1 = 1998
    monkeypatch.setattr(catalog, "factor", lambda n: FactoredInteger(
        n=n, factors=[], residual=n))
    for argv in (("prob-table", "--p", "1999", "--target-bits-list", "3",
                  "--m-exponents", "1"),
                 ("solve", "--oracle-p", "1999", "--d", "37", "--x", "5")):
        assert run(*argv) == (2, "", "error: need the complete "
                              "factorization of order-1\n")
    # a --d-list factors nothing
    code, out, _ = run("prob-table", "--p", "1999", "--d-list", "37",
                       "--m-exponents", "1")
    assert code == 0 and out


def test_prob_table_usage_errors(run):
    assert run("prob-table")[0] == 2
    assert run("prob-table", "--p", "65537")[0] == 2  # no divisors
    assert run("prob-table", "--p", "65537", "--curve", "P-256",
               "--d-list", "16", "--m-exponents", "1")[0] == 2
    assert run("prob-table", "--p", "65537", "--d-list", "16")[0] == 2


def test_an_empty_curve_name_is_looked_up_like_any_other(run):
    # `--curve ""` fills the group's slot, so it is resolved, not skipped
    for command in (("prob-table", "--d-list", "16", "--m-exponents", "1"),
                    ("keycheck", "--x", "1")):
        code, out, err = run(*command, "--curve", "")
        assert (code, out) == (2, "")
        assert err.startswith("error: '' is neither a built-in curve")


def test_audit_builtins(run):
    for name in ("P-256", "P-384"):
        code, out, _ = run("audit", name)
        assert code == 0
        assert out.strip().endswith("overall: pass")
    code, out, _ = run("audit", "P-384")
    assert "log2 d1 = 294.14" in out


def test_audit_csv(run):
    code, out, _ = run("audit", "P-192", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "curve,check,passed,detail"


def test_audit_curve_file(run, tmp_path):
    path = tmp_path / "desk.curve"
    path.write_text(format_curve_params(desk_curve()))
    code, out, _ = run("audit", str(path))
    assert code == 0
    assert "curve params match record" in out


def test_csv_quotes_a_comma_in_the_curve_name(run, tmp_path):
    path = tmp_path / "copy.curve"
    params = dataclasses.replace(desk_curve(), name="desk, copy")
    path.write_text(format_curve_params(params))
    for argv in (("keycheck", "--curve", str(path), "--x", "5",
                  "--d", "27,37"),
                 ("audit", str(path))):
        _, out, _ = run(*argv, "--format", "csv")
        header, *rows = csv.reader(io.StringIO(out))
        assert header[0] == "curve" and rows
        assert all(len(row) == len(header) for row in rows)
        assert {row[0] for row in rows} == {"desk, copy"}


def test_audit_unknown_target(run):
    code, _, err = run("audit", "P-999")
    assert code == 2
    assert "neither a built-in curve" in err


def test_keycheck_member_discards(run):
    code, out, _ = run("keycheck", "--curve", "P-256", "--x", "1",
                       "--d", "2,16")
    assert code == 0
    assert "recommendation: discard" in out


def test_keycheck_non_member_keeps(run):
    code, out, _ = run("keycheck", "--curve", "P-256", "--x", "2", "--d", "2")
    assert code == 1
    assert "recommendation: keep" in out


def test_keycheck_default_pair_inconclusive(run):
    code, out, _ = run("keycheck", "--curve", "P-256", "--x", "2")
    assert code == 1
    assert "recommendation: inconclusive" in out
    assert out.count("infeasible") == 2


def test_keycheck_point_form(run, tmp_path):
    params = desk_curve()
    path = tmp_path / "desk.curve"
    path.write_text(format_curve_params(params))
    group = CurveGroup(params)
    H = subgroup_generator(params.order, 37)
    x = pow(H.zeta.value, 3, params.order)
    qx, qy = group.scalar_mul(x, group.generator).data
    code, out, _ = run("keycheck", "--curve", str(path),
                       "--q", "%d,%d" % (qx, qy))
    assert code == 0
    assert "recommendation: discard" in out
    assert "[point]" in out


def test_keycheck_point_form_builds_one_group(run, tmp_path, monkeypatch):
    params = desk_curve()
    path = tmp_path / "desk.curve"
    path.write_text(format_curve_params(params))
    built = []
    real_init = CurveGroup.__init__

    def counting_init(self, curve):
        built.append(curve)
        real_init(self, curve)

    monkeypatch.setattr(CurveGroup, "__init__", counting_init)
    code, out, _ = run("keycheck", "--curve", str(path),
                       "--q", "%d,%d" % (params.gx, params.gy))
    assert code == 0 and "recommendation: discard" in out  # x = 1
    assert built == [params]


def test_points_parse_in_a_wrapped_curve_group(run, monkeypatch):
    # a record's group may come wrapped (a CountingGroup, as tracing
    # does); its points are still read as x,y
    monkeypatch.setattr(catalog, "CurveGroup",
                        lambda params: CountingGroup(CurveGroup(params)))
    params = desk_curve()
    point = "%d,%d" % (params.gx, params.gy)  # x = 1
    code, out, _ = run("keycheck", "--curve", "desk", "--q", point,
                       "--d", "37")
    assert code == 0 and "[point] member" in out
    code, out, _ = run("solve", "--curve", "desk", "--d", "37", "--q", point)
    assert code == 0 and "Found x = 1 " in out


def test_keycheck_and_audit_know_the_desk_curve(run):
    # solve, keycheck and audit resolve curve names the same way
    params = desk_curve()
    H = subgroup_generator(params.order, 37)
    member = pow(H.zeta.value, 3, params.order)
    code, out, _ = run("keycheck", "--curve", "desk", "--x", str(member),
                       "--d", "37")
    assert code == 0 and "recommendation: discard" in out
    code, out, _ = run("keycheck", "--curve", "desk", "--x", "5", "--d", "37")
    assert code == 1 and "recommendation: keep" in out
    code, out, _ = run("keycheck", "--curve", "desk",
                       "--q", "%d,%d" % (params.gx, params.gy), "--d", "37")
    assert code == 0 and "[point] member" in out  # x = 1
    code, out, _ = run("audit", "desk")
    assert code == 0 and "overall: pass" in out


def test_keycheck_csv(run):
    code, out, _ = run("keycheck", "--curve", "P-256", "--x", "1",
                       "--d", "16", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == \
        "curve,d,log2_d,mechanism,feasible,status,steps,required_steps"
    assert lines[1].startswith("P-256,16,")


def test_keycheck_usage_errors(run):
    assert run("keycheck", "--x", "1")[0] == 2          # no record source
    assert run("keycheck", "--curve", "P-256")[0] == 2  # no key
    assert run("keycheck", "--curve", "P-256", "--q", "1,2") == \
        (2, "", NO_POINTS)
    code, out, err = run("keycheck", "--curve", "P-256", "--x", "2",
                         "--d", "16,--3")                  # doubled sign
    assert code == 2 and out == "" and "error:" in err


def test_keycheck_rejects_a_non_divisor(run):
    code, out, err = run("keycheck", "--curve", "desk", "--x", "5",
                         "--d", "7")
    assert code == 2 and out == ""
    assert err == "error: d = 7 does not divide p-1 = 1998\n"


def test_factor_command(run):
    code, out, _ = run("factor", "30")
    assert code == 0 and out.strip() == "30 = 2 * 3 * 5"
    code, out, _ = run("factor", "0x1e")
    assert code == 0 and out.strip() == "30 = 2 * 3 * 5"
    assert run("factor", "--", "--12")[0] == 2  # doubled sign


def test_factor_incomplete(run):
    n = 1000000007 * 1000000009
    code, out, err = run("factor", str(n), "--budget", "4")
    assert code == 1
    assert out.strip() == "%d = %d" % (n, n)
    assert "incomplete" in err


def test_factor_and_keycheck_refuse_a_negative_budget(run):
    # a usage error at exit 2, as solve's step cap, not a clean negative
    # ("incomplete" / "inconclusive" at exit 1)
    n = str(1000000007 * 1000000009)
    assert run("factor", n, "--budget", "-7") == \
        (2, "", "error: rho budget must be >= 0, got -7\n")
    keycheck = ("keycheck", "--curve", "P-256", "--x", "5", "--d", "3")
    assert run(*keycheck, "--budget", "-1") == \
        (2, "", "error: audit budget must be >= 0, got -1\n")
    # a zero budget still runs and tries nothing
    code, out, err = run("factor", n, "--budget", "0")
    assert code == 1 and out.strip() == "%s = %s" % (n, n)
    assert "incomplete" in err
    code, out, _ = run(*keycheck, "--budget", "0")
    assert code == 1 and "recommendation: inconclusive" in out


def test_options_only_where_a_command_reads_them(run):
    # --format on factor, --seed on the commands that draw nothing,
    # --workers anywhere and the retired bench command are usage errors:
    # one error line, exit 2
    for argv in (("bench",), ("bench", "--sizes", "8:12:2"),
                 ("factor", "12", "--format", "csv"),
                 ("solve", "--oracle-p", "31", "--d", "5", "--x", "3",
                  "--m", "2", "--workers", "2"),
                 ("audit", "P-256", "--seed", "1"),
                 ("prob-table", "--paper-256", "--seed", "1"),
                 ("keycheck", "--curve", "P-256", "--x", "2", "--seed", "1"),
                 ("factor", "12", "--seed", "1")):
        code, out, err = run(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_every_value_option_declares_its_type():
    # values are converted by the parser, so a bad one takes argparse's one
    # error path; only curve names and the --format choices stay text
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    untyped = {(name, action.dest)
               for name, parser in commands.items()
               for action in parser._actions
               if action.nargs != 0 and action.type is None
               and action.choices is None}
    assert untyped == {("solve", "curve"), ("prob-table", "curve"),
                       ("keycheck", "curve"), ("audit", "target")}
    assert set(commands) == {"solve", "prob-table", "audit", "keycheck",
                             "factor"}


def test_usage_errors_are_one_line_at_exit_2(run, capsys):
    # a bad value, an unknown or missing argument and an unknown
    # subcommand all print one error line; --help still prints the synopsis
    for argv, message in (
            ((), "the following arguments are required: command"),
            (("bench",), "argument command: invalid choice: 'bench' "
                         "(choose from 'solve', 'prob-table', 'audit', "
                         "'keycheck', 'factor')"),
            (("factor",), "the following arguments are required: n"),
            (("factor", "30", "--budget"),
             "argument --budget: expected one argument"),
            (("audit", "P-256", "--format", "xml"),
             "argument --format: invalid choice: 'xml' "
             "(choose from 'text', 'csv')")):
        assert run(*argv) == (2, "", "error: %s\n" % message), argv
    with pytest.raises(SystemExit) as exc:
        run("factor", "--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: subgroupdlp factor")


def test_the_parser_holds_the_rules_between_options():
    # options that exclude each other are argparse groups, so --help shows
    # them and no command body checks them
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    groups = {name: {(tuple(a.option_strings[0] for a in g._group_actions),
                      g.required)
                     for g in parser._mutually_exclusive_groups}
              for name, parser in commands.items()}
    assert groups == {
        "solve": {(("--oracle-p", "--curve"), True), (("--x", "--q"), True),
                  (("--d", "--target-bits"), True)},
        "prob-table": {(("--paper-256", "--curve", "--p"), True),
                       (("--d-list", "--target-bits-list"), False)},
        "audit": set(),
        "keycheck": {(("--x", "--q"), True)},
        "factor": set()}
    assert {(name, a.dest) for name, parser in commands.items()
            for a in parser._actions
            if a.required and a.option_strings} == {("keycheck", "curve")}


@pytest.mark.parametrize("argv, message", [
    (("solve", "--x", "3", "--d", "5"),
     "one of the arguments --oracle-p --curve is required"),
    (("solve", "--oracle-p", "31", "--curve", "desk", "--x", "3", "--d", "5"),
     "argument --curve: not allowed with argument --oracle-p"),
    (("solve", "--oracle-p", "31", "--d", "5"),
     "one of the arguments --x --q is required"),
    (("solve", "--oracle-p", "31", "--x", "3", "--q", "8", "--d", "5"),
     "argument --q: not allowed with argument --x"),
    (("solve", "--oracle-p", "31", "--x", "3"),
     "one of the arguments --d --target-bits is required"),
    (("solve", "--oracle-p", "31", "--x", "3", "--d", "5",
      "--target-bits", "2"),
     "argument --target-bits: not allowed with argument --d"),
    (("prob-table", "--d-list", "16", "--m-exponents", "1"),
     "one of the arguments --paper-256 --curve --p is required"),
    (("prob-table", "--p", "65537", "--curve", "P-256", "--d-list", "16",
      "--m-exponents", "1"),
     "argument --curve: not allowed with argument --p"),
    (("prob-table", "--paper-256", "--p", "31"),
     "argument --p: not allowed with argument --paper-256"),
    (("prob-table", "--p", "65537", "--m-exponents", "1"),
     "one of the arguments --d-list --target-bits-list is required without "
     "--paper-256"),
    (("prob-table", "--p", "65537", "--d-list", "16", "--target-bits-list",
      "4", "--m-exponents", "1"),
     "argument --target-bits-list: not allowed with argument --d-list"),
    (("keycheck", "--x", "1"),
     "the following arguments are required: --curve"),
    (("keycheck", "--curve", "P-256"),
     "one of the arguments --x --q is required"),
    (("keycheck", "--curve", "P-256", "--x", "1", "--q", "2,3"),
     "argument --q: not allowed with argument --x"),
    (("prob-table", "--paper-256", "--d-list", "7", "--m-exponents", "1"),
     "argument --d-list: not allowed with argument --paper-256"),
    (("prob-table", "--paper-256", "--target-bits-list", "7",
      "--m-exponents", "1"),
     "argument --target-bits-list: not allowed with argument --paper-256"),
    (("prob-table", "--paper-256", "--m-exponents", "1"),
     "argument --m-exponents: not allowed with argument --paper-256"),
])
def test_both_or_neither_of_two_options_is_one_error_line(run, argv,
                                                           message):
    assert run(*argv) == (2, "", "error: %s\n" % message)


def test_one_parser_per_process():
    assert build_parser() is build_parser()


def test_reused_parser_leaks_nothing_between_calls(run):
    # back-to-back calls share the one parser; each gets a fresh Namespace
    base = ("solve", "--oracle-p", "31", "--d", "5", "--x", "8")
    _, out, _ = run(*base, "--m", "2", "--count-ops", "--format", "csv")
    assert out.startswith("outcome,x,a,b,index,steps,d,m,p,")
    code, out, _ = run(*base)
    assert code == 0 and out.startswith("group: ")
    assert "outcome: Found x = 8  (a = " in out
    assert "campaign:" not in out and "measured ops" not in out

    fresh = run("factor", "30")
    assert run("factor", "12", "--format", "csv") == \
        (2, "", "error: unrecognized arguments: --format csv\n")
    assert run("factor", "30") == fresh == (0, "30 = 2 * 3 * 5\n", "")


def test_console_entry_point():
    # from a checkout with no install: give the interpreter src
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "subgroupdlp.cli", "factor", "30"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "30 = 2 * 3 * 5"


HASHLIB_PROBE = """
import contextlib, io, sys
from subgroupdlp import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["solve", "--oracle-p", "65537", "--d", "4096", "--x", "61111"])
    cli.main(["factor", "30"])
    print("before", "hashlib" in sys.modules, file=sys.stderr)
    cli.main(["solve", "--oracle-p", "65537", "--d", "4096", "--x", "12345",
              "--m", "8", "--seed", "1"])
    print("after", "hashlib" in sys.modules, file=sys.stderr)
"""


def test_only_campaigns_import_hashlib():
    # derive_seed imports hashlib (and OpenSSL) on first use, so a
    # process that runs no campaign never loads it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", HASHLIB_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["before", "False", "after", "True"]
