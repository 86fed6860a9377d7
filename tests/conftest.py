"""Shared fixtures and the acceptance-summary hook.

The tests in test_acceptance.py are named test_c<N>_*; after a run that
included any of them, one PASS/FAIL line per numbered criterion is printed
so the verification matrix can be read off the terminal directly.
"""

import re

import pytest

ACCEPTANCE_TITLES = {
    1: "probability grid reproduces the published P-256 tables",
    2: "NIST catalog consistency (products, coprimality, log2 sizes)",
    3: "constrained search vs brute force at desk scale",
    4: "randomized campaigns match the exact collision probability",
    5: "recovery identity and zero false positives",
    6: "group laws and implicit equality",
    7: "sqrt(d) step scaling",
    8: "headline P-256 attack declared out of desk reach",
}

_CRITERION_RE = re.compile(r"test_acceptance\.py::test_c(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seen = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION_RE.search(report.nodeid)
            if not match:
                continue
            num = int(match.group(1))
            good, total = seen.get(num, (0, 0))
            seen[num] = (good + (status == "passed"), total + 1)
    if not seen:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num in sorted(seen):
        good, total = seen[num]
        verdict = "PASS" if good == total else "FAIL"
        detail = "" if good == total else "  (%d of %d sub-checks failed)" % (
            total - good, total)
        tw.write_line("ACCEPTANCE %d: %-4s %s%s"
                      % (num, verdict, ACCEPTANCE_TITLES.get(num, ""), detail))


@pytest.fixture(scope="session")
def desk_curve_params():
    from subgroupdlp import desk_curve
    return desk_curve()


@pytest.fixture(scope="session")
def mid_curve_params():
    """A 28-bit prime-order curve, between the desk curve and P-256.

    y^2 = x^3 + 75077558x + 162623360 over F_197120467, base point
    (180193618, 12948563) of prime order n = 197129701, with n - 1 =
    2^2 * 3^4 * 5^2 * 24337 giving subgroups from 2^8 to 2^17.  Cofactor 1
    by Hasse: #E lies within 2*sqrt(q) < 28080 of q + 1, so in
    [197092388, 197148548]; the point of order n (checked by CurveGroup)
    makes n divide #E, and 2n > 197148548, so #E = n.
    """
    from subgroupdlp import CurveParams
    return CurveParams(q=197120467, a=75077558, b=162623360, gx=180193618,
                       gy=12948563, order=197129701, cofactor=1, name="mid")
