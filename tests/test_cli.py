"""End-to-end CLI behavior: arguments, output formats, exit codes."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from subgroupdlp.bsgs import theorem_budget
from subgroupdlp.catalog import P256_TABLE_DIVISORS
from subgroupdlp.cli import DATA_DIR_ENV, main
from subgroupdlp.factoring import subgroup_generator
from subgroupdlp.groups import CurveGroup, desk_curve, format_curve_params
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
    assert code == 1 and "outcome: Failed" in out


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
    assert lines["steps"] == ("steps: 328 total over 7 threads (26 baby "
                              "keys per thread, 158-key giant table)")
    # forming Q from --x, every counted search step and the winner's
    # re-verification
    assert lines["measured ops"] == "measured ops: 330 scalar_mul, 0 add"


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
    assert measured == 1 + total_steps + 1 == 330


@pytest.mark.parametrize("spec", ["4:2:-1", "56:45:-1", "2:4:0", "5:3",
                                  "1:2:3:4"])
def test_bad_exponent_ranges_exit_2(run, spec):
    for argv in (("prob-table", "--p", "65537", "--d-list", "16",
                  "--m-exponents", spec), ("bench", "--sizes", spec)):
        code, out, err = run(*argv)
        assert code == 2 and out == ""
        assert "bad exponent range %r" % spec in err


def test_solve_degenerate_exponent(run):
    code, _, err = run("solve", "--oracle-p", "31", "--d", "5", "--x", "0")
    assert code == 2 and "error:" in err


def test_solve_on_desk_curve_by_name(run):
    code, out, _ = run("solve", "--curve", "desk", "--d", "27", "--x", "5")
    assert code in (0, 1)
    assert "group: curve (order 1999)" in out


def test_solve_named_builtin_has_no_points(run):
    code, _, err = run("solve", "--curve", "P-256", "--d", "16", "--x", "5")
    assert code == 2
    assert "no point parameters" in err


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


def test_prob_table_usage_errors(run):
    assert run("prob-table")[0] == 2
    assert run("prob-table", "--p", "65537")[0] == 2  # no divisors
    assert run("prob-table", "--p", "65537", "--curve", "P-256",
               "--d-list", "16", "--m-exponents", "1")[0] == 2
    assert run("prob-table", "--p", "65537", "--d-list", "16")[0] == 2


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
    code, _, err = run("keycheck", "--curve", "P-256", "--q", "1,2")
    assert code == 2 and "point-form" in err
    code, out, err = run("keycheck", "--curve", "P-256", "--x", "2",
                         "--d", "16,--3")                  # doubled sign
    assert code == 2 and out == "" and "error:" in err


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


def test_bench_csv(run):
    code, out, _ = run("bench", "--sizes", "8:16:4", "--format", "csv",
                       "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "log2_d,steps,seconds,scalar_muls_per_sec"
    assert len(lines) == 4
    for line, k in zip(lines[1:], (8, 12, 16)):
        fields = line.split(",")
        assert int(fields[0]) == k
        assert int(fields[1]) == theorem_budget(1 << k)


def test_bench_text_reports_fit(run):
    code, out, _ = run("bench", "--sizes", "8,10,12", "--seed", "1")
    assert code == 0
    assert "fitted exponent" in out


def test_bench_empty_sizes(run):
    assert run("bench", "--sizes", "")[0] == 2


def test_options_only_where_a_command_reads_them(run):
    # --format on factor, --seed on the commands that draw nothing and
    # --workers anywhere are argparse errors, which exit 2 by SystemExit
    for argv in (("factor", "12", "--format", "csv"),
                 ("solve", "--oracle-p", "31", "--d", "5", "--x", "3",
                  "--m", "2", "--workers", "2"),
                 ("audit", "P-256", "--seed", "1"),
                 ("prob-table", "--paper-256", "--seed", "1"),
                 ("keycheck", "--curve", "P-256", "--x", "2", "--seed", "1"),
                 ("factor", "12", "--seed", "1")):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2, argv


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
