"""Generated inputs depend on the seed and on nothing else."""

import pytest

import oracles
import workloads
from subgroupdlp import groups

ITEMS = range(6)


def test_run_py_knows_every_workload():
    import run
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    cls = workloads.WORKLOADS[name]
    a, b = cls(7), cls(7)
    assert a.size() == b.size()
    assert [a.make_item(i) for i in ITEMS] == [b.make_item(i) for i in ITEMS]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_other_inputs(name):
    cls = workloads.WORKLOADS[name]
    a, b = cls(7), cls(8)
    assert [a.make_item(i) for i in ITEMS] != [b.make_item(i) for i in ITEMS]


def test_seed_picks_the_solve_prime():
    p7, p8 = workloads.SolveOracle(7).p, workloads.SolveOracle(8).p
    assert p7 != p8
    for p in (p7, p8):
        assert oracles.is_prime(p) and (p - 1) % (1 << 22) == 0


def test_strata_cover_every_outcome_once_per_block():
    w = workloads.CampaignMult(3)
    hits = [w.make_item(i).first_hit for i in range(w.block)]
    assert sorted(hits) == sorted(w.first_hits)
    assert w.m in hits  # some campaigns are meant to fail
    assert all(w.first_hit(item.x, item.seed) == item.first_hit
               for item in (w.make_item(i) for i in range(w.block)))


def test_curve_points_agree_with_the_library():
    w = workloads.KeyauditP256(1)
    group = groups.CurveGroup(groups.load_curve_file(str(workloads.CURVE_FILE)))
    G = (w.curve["gx"], w.curve["gy"])
    for k in (1, 2, 3, 12345, w.n - 1):
        assert oracles.curve_mul(k, G, w.curve) == \
            group.scalar_mul(k, group.generator).data
    assert oracles.curve_mul(w.n, G, w.curve) is None
