"""Recorded CLI output: stdout and exit code, byte for byte.

Each case was recorded from the command as it ran before the backends
took over the sweep loop; only the digits of the `elapsed:` line, a
wall-clock time, are masked.  The three campaign cases' step counts (and
measured ops) were re-recorded when campaigns stopped sweeping a coset
twice: each drops by one skipped 26-key thread, and every other byte is
as first recorded.  Single solves, campaigns, --count-ops,
csv, point- and scalar-form keychecks and an audit are all covered, on
the oracle group and on the desk curve.
"""

import re

import pytest

from subgroupdlp.cli import main

CASES = [
    ('solve --oracle-p 65537 --d 4096 --x 12345',
     1,
     ('group: oracle (order 65537)\n'
      'subgroup: d = 4096 (log2 12.00), zeta = 54449\n'
      'outcome: NotInSubgroup\n'
      'steps: 132 scalar multiplications (budget 132)\n'
      'single-draw success model: lower 0.0605869, exact 0.0625\n'
      'elapsed: <s> s\n'),
    ),
    ('solve --oracle-p 65537 --d 4096 --x 61111 --count-ops',
     0,
     ('group: oracle (order 65537)\n'
      'subgroup: d = 4096 (log2 12.00), zeta = 54449\n'
      'outcome: Found x = 61111  (a = 64, b = 59)\n'
      'steps: 126 scalar multiplications (budget 132)\n'
      'single-draw success model: lower 0.0605869, exact 0.0625\n'
      'measured ops: 128 scalar_mul, 0 add\n'
      'elapsed: <s> s\n'),
    ),
    ('solve --oracle-p 65537 --d 4096 --x 61111 --format csv',
     0,
     ('outcome,x,a,b,index,steps,d,m,p,lower_bound,exact\n'
      'Found,61111,64,59,,126,4096,1,65537,0.06058693718652421,0.0625\n'),
    ),
    ('solve --oracle-p 65537 --d 4096 --x 12345 --m 8 --seed 1',
     0,
     ('group: oracle (order 65537)\n'
      'subgroup: d = 4096 (log2 12.00), zeta = 54449\n'
      'campaign: m = 8, seed = 1\n'
      'outcome: Found x = 12345 on thread 6 (y = 17278, z = 39512)\n'
      'steps: 302 total over 7 threads (26 baby keys per thread, 158-key giant table)\n'
      'predicted success: lower 0.39347, exact 0.40328\n'
      'elapsed: <s> s\n'),
    ),
    ('solve --oracle-p 65537 --d 4096 --x 12345 --m 8 --seed 1 --count-ops',
     0,
     ('group: oracle (order 65537)\n'
      'subgroup: d = 4096 (log2 12.00), zeta = 54449\n'
      'campaign: m = 8, seed = 1\n'
      'outcome: Found x = 12345 on thread 6 (y = 17278, z = 39512)\n'
      'steps: 302 total over 7 threads (26 baby keys per thread, 158-key giant table)\n'
      'predicted success: lower 0.39347, exact 0.40328\n'
      'measured ops: 304 scalar_mul, 0 add\n'
      'elapsed: <s> s\n'),
    ),
    ('solve --oracle-p 65537 --d 4096 --x 777 --m 8 --seed 3 --count-ops --format csv',
     0,
     ('outcome,x,a,b,index,steps,d,m,p,lower_bound,exact\n'
      'Found,777,,,7,333,4096,8,65537,0.3934693402873666,0.4032805261667818\n'),
    ),
    ('solve --curve desk --d 54 --x 1130 --count-ops',
     0,
     ('group: curve (order 1999)\n'
      'subgroup: d = 54 (log2 5.75), zeta = 979\n'
      'outcome: Found x = 1130  (a = 1, b = 5)\n'
      'steps: 15 scalar multiplications (budget 18)\n'
      'single-draw success model: lower 0.0266651, exact 0.027027\n'
      'measured ops: 17 scalar_mul, 0 add\n'
      'elapsed: <s> s\n'),
    ),
    ('solve --curve desk --d 54 --x 1234 --m 4 --seed 2 --count-ops',
     1,
     ('group: curve (order 1999)\n'
      'subgroup: d = 54 (log2 5.75), zeta = 979\n'
      'campaign: m = 4, seed = 2\n'
      'outcome: Failed (no thread landed in the subgroup)\n'
      'steps: 30 total over 4 threads (4 baby keys per thread, 14-key giant table)\n'
      'predicted success: lower 0.10247, exact 0.10380\n'
      'measured ops: 31 scalar_mul, 0 add\n'
      'elapsed: <s> s\n'),
    ),
    ('keycheck --curve desk --q 1799,2009',
     0,
     ('key audit: desk (budget 4294967296 scalar muls)\n'
      '  d ~ 2^5.75     [point] member      (15 steps used, feasible)\n'
      '  d ~ 2^5.21     [point] non-member  (16 steps used, feasible)\n'
      'recommendation: discard\n'),
    ),
    ('keycheck --curve desk --q 1975,227',
     1,
     ('key audit: desk (budget 4294967296 scalar muls)\n'
      '  d ~ 2^5.75     [point] non-member  (18 steps used, feasible)\n'
      '  d ~ 2^5.21     [point] non-member  (16 steps used, feasible)\n'
      'recommendation: keep\n'),
    ),
    ('keycheck --curve desk --x 1130',
     0,
     ('key audit: desk (budget 4294967296 scalar muls)\n'
      '  d ~ 2^5.75     [scalar] member      (15 steps used, feasible)\n'
      '  d ~ 2^5.21     [scalar] non-member  (16 steps used, feasible)\n'
      'recommendation: discard\n'),
    ),
    ('keycheck --curve desk --x 1234',
     1,
     ('key audit: desk (budget 4294967296 scalar muls)\n'
      '  d ~ 2^5.75     [scalar] non-member  (18 steps used, feasible)\n'
      '  d ~ 2^5.21     [scalar] non-member  (16 steps used, feasible)\n'
      'recommendation: keep\n'),
    ),
    ('audit desk',
     0,
     ('consistency report: desk\n'
      '  [pass] order p is prime             \n'
      '  [pass] listed factors are prime     \n'
      '  [pass] factor product equals p-1    \n'
      '  [pass] d1 * d2 equals p-1           log2 d1 = 5.75, log2 d2 = 5.21\n'
      '  [pass] gcd(d1, d2) equals 1         \n'
      '  [pass] audit pair partitions the factors \n'
      '  [pass] field prime q is prime       \n'
      '  [pass] curve params match record    \n'
      'overall: pass\n'),
    ),
]


@pytest.mark.parametrize("command,code,stdout", CASES,
                         ids=[case[0] for case in CASES])
def test_output_matches_the_recorded_bytes(capsys, command, code, stdout):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert re.sub(r"elapsed: [0-9.]+ s", "elapsed: <s> s", out) == stdout
