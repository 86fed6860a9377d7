"""Each workload's oracle counts a wrong verdict or a wrong x as failed."""

import dataclasses

import pytest

import oracles
import run
import speed
import workloads
from subgroupdlp import bsgs, catalog, cli, parallel
from subgroupdlp.field import Residue


@pytest.fixture(scope="module")
def solve():
    w = workloads.SolveOracle(5)
    w.setup()
    return w


def test_solve_oracle_accepts_the_true_verdicts(solve):
    for i in range(4):
        x = solve.make_item(i)
        assert solve.check(x, solve.run_item(x))


def test_solve_oracle_rejects_wrong_verdicts(solve):
    member, outsider = solve.make_item(1), solve.make_item(0)
    p, budget = solve.p, oracles.theorem_budget(solve.d)
    assert oracles.in_subgroup(member, solve.d, p)
    assert not oracles.in_subgroup(outsider, solve.d, p)
    assert not solve.check(member, bsgs.NotInSubgroup(steps=budget))
    wrong_x = bsgs.Found(x=Residue(member * 3 % p, p), a=0, b=0, steps=9)
    assert not solve.check(member, wrong_x)
    assert not solve.check(outsider, bsgs.Found(
        x=Residue(outsider, p), a=0, b=0, steps=9))
    assert not solve.check(outsider, bsgs.NotInSubgroup(steps=budget - 1))
    assert not solve.check(outsider, bsgs.Undecided(steps=budget))


class PlantedWrongVerdict(workloads.SolveOracle):
    """Every member comes back as a non-member."""

    def run_item(self, x):
        return bsgs.NotInSubgroup(steps=oracles.theorem_budget(self.d))


def test_measure_counts_planted_wrong_verdicts_as_failed():
    w = PlantedWrongVerdict(5)
    records = run.measure(w, speed.SpeedProbe(), items=6)
    assert [r["ok"] for r in records] == [True, False] * 3


class Raises(workloads.SolveOracle):
    def run_item(self, x):
        raise ArithmeticError("boom")


def test_measure_counts_exceptions_as_failed():
    records = run.measure(Raises(5), speed.SpeedProbe(), items=2)
    assert not any(r["ok"] for r in records)
    assert "boom" in records[0]["error"]


def test_campaign_oracle_rejects_wrong_x_and_false_hits():
    w = workloads.CampaignMult(2)
    hit = next(w.make_item(i) for i in range(40)
               if w.make_item(i).first_hit < w.m)
    miss = next(w.make_item(i) for i in range(40)
                if w.make_item(i).first_hit == w.m)

    def found(x):
        y = Residue(2, w.p)
        return parallel.CampaignResult(success=parallel.CampaignSuccess(
            x=Residue(x, w.p), index=0, y=y, z=y))

    assert w.check(hit, found(hit.x))
    assert not w.check(hit, found(hit.x + 1))
    assert not w.check(hit, parallel.CampaignResult())
    assert w.check(miss, parallel.CampaignResult())
    assert not w.check(miss, found(miss.x))


def test_keyaudit_oracle_rejects_a_wrong_status():
    w = workloads.KeyauditP256(4)
    item = w.make_item(0)
    d, x, _ = item
    member = oracles.in_subgroup(x, d, w.n)

    def report(status, steps, recommendation):
        entry = catalog.SubgroupCheck(
            d=d, log2_d=1.0, required_steps=oracles.theorem_budget(d),
            feasible=True, status=status, steps=steps, mechanism="point")
        return catalog.KeyAuditReport(curve="P-256", budget=1 << 32,
                                      entries=(entry,),
                                      recommendation=recommendation)

    right = (report("member", 3, "discard") if member else
             report("non-member", oracles.theorem_budget(d), "keep"))
    wrong = (report("non-member", oracles.theorem_budget(d), "keep")
             if member else report("member", 3, "discard"))
    assert w.check(item, right)
    assert not w.check(item, wrong)
    assert not w.check(item, dataclasses.replace(right, entries=()))


def test_pricing_oracles_reject_bad_output():
    w = workloads.PricingCli(3)
    w.setup()
    items = {}
    for i in range(10):
        items.setdefault(w.make_item(i)[0], w.make_item(i))
    for kind, item in items.items():
        rc, text = w.run_item(item)
        assert w.check(item, (rc, text)), kind
        assert not w.check(item, (2, text)), kind

    _, _, n = items["factor"]
    rc, text = w.run_item(items["factor"])
    first = int(text.split("=")[1].split("*")[0].split("^")[0])
    assert not w.check(items["factor"], (0, text.replace(" = ", " = 1 * ", 1)))
    assert not w.check(items["factor"], (0, "%d = %d" % (n, n)))  # composite
    assert not w.check(items["factor"],
                       (0, text.replace(str(first), str(first + 2), 1)))

    rc, text = w.run_item(items["prob-table"])
    cell = text.split()[text.split().index("45") + 1]
    nudged = "%.5f" % (float(cell) + 2e-4)
    assert not w.check(items["prob-table"], (0, text.replace(cell, nudged, 1)))

    rc, text = w.run_item(items["audit"])
    assert not w.check(items["audit"],
                       (0, text.replace("overall: pass", "overall: FAIL")))


def test_keycheck_oracle_matches_the_exit_code():
    p = workloads.PricingCli(1).p256
    d = 71 * 131
    x = pow(5, (p - 1) // d, p)  # a member
    ok_text = cli_text(["keycheck", "--curve", "P-256", "--x", str(x),
                        "--d", str(d)])
    assert oracles.keycheck_ok(ok_text, 0, x, d, p)
    assert not oracles.keycheck_ok(ok_text, 1, x, d, p)
    assert not oracles.keycheck_ok(ok_text, 0, x + 1, d, p)


def cli_text(argv):
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


class ThreeStrata(workloads.Workload):
    name = "three-strata"
    block = 3

    def make_item(self, i):
        return i

    def run_item(self, i):
        return i

    def check(self, i, out):
        return out == i


def test_a_timed_run_ends_on_a_whole_block():
    for min_items, want in ((1, 3), (4, 6)):
        records = run.measure(ThreeStrata(1), speed.SpeedProbe(), seconds=0,
                              min_items=min_items)
        assert len(records) == want and all(r["ok"] for r in records)
