"""Golden reports: scan results stay byte-identical across refactors.

tests/data/golden_reports.txt holds, for every claim of two scans, the
report JSON (wall time set to 0) and the crossing's largest failing x and
implied threshold.  The scans are the paper's claims with printed
thresholds up to 10^8, replayed over [2, 10^6], and thm4.1.gap3 over a
window that starts on a composite just below its threshold.  Print the
current text with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import dataclasses
import sys
from pathlib import Path

from primebounds.bounds import lookup, registry_list
from primebounds.verify import report_to_json, scan_claims

GOLDEN = Path(__file__).parent / "data" / "golden_reports.txt"


def _blocks(claims):
    for claim in claims:
        report, crossing = claim.report, claim.crossing
        if crossing is None:
            head = "largest_failing_x=- implied_threshold=-"
        else:
            head = "largest_failing_x=%d implied_threshold=%s" % (
                crossing.largest_failing_x,
                "-" if crossing.implied_threshold is None else crossing.implied_threshold,
            )
        body = report_to_json(dataclasses.replace(report, wall_time=0.0))
        yield "== %s %s\n%s\n" % (report.bound_id, head, body)


def golden_text() -> str:
    desk = [
        s for s in registry_list()
        if s.status == "claimed_paper" and s.threshold_x0 <= 10**8
    ]
    claims = scan_claims(desk, 2, 10**6)
    claims += scan_claims([lookup("thm4.1.gap3")], 6_034_250, 6_034_400)
    return "".join(_blocks(claims))


def test_reports_and_crossings_match_golden():
    expected = GOLDEN.read_text()
    assert expected.count("\n== ") + 1 == 23
    assert golden_text() == expected


if __name__ == "__main__":
    sys.stdout.write(golden_text())
