"""Golden certificates: monotonicity certificates stay identical across refactors.

tests/data/golden_certificates.txt holds, for every registry entry, the
certified start on [2, 10^8] and on [x0, x0 + 10^7] (x0 the entry's
threshold), or the name of the error class raised, and the JSON document
that `primebounds proof` prints at x0.  Print the current text with

    PYTHONPATH=src python tests/test_golden_certificates.py
"""

import contextlib
import io
import sys
from pathlib import Path

from primebounds import proofkit
from primebounds.bounds import registry_list
from primebounds.cli import main
from primebounds.errors import PrimeBoundsError

GOLDEN = Path(__file__).parent / "data" / "golden_certificates.txt"


def _start(spec, lo, hi) -> str:
    try:
        return str(proofkit.certified_start(spec, lo, hi))
    except PrimeBoundsError as exc:
        return type(exc).__name__


def _proof(spec) -> str:
    try:
        proofkit.shape_on_ray(spec, spec.threshold_x0)
    except PrimeBoundsError as exc:
        return type(exc).__name__ + "\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["proof", "--bound", spec.id])
    return "exit=%d\n%s" % (code, out.getvalue())


def _blocks():
    for spec in registry_list():
        x0 = spec.threshold_x0
        yield "== %s start[2,1e8]=%s start[x0,x0+1e7]=%s\n%s" % (
            spec.id,
            _start(spec, 2, 10**8),
            _start(spec, x0, x0 + 10**7),
            _proof(spec),
        )


def golden_text() -> str:
    return "".join(_blocks())


def test_certificates_match_golden():
    expected = GOLDEN.read_text()
    assert expected.count("== ") == len(registry_list()) == 64
    assert golden_text() == expected


if __name__ == "__main__":
    sys.stdout.write(golden_text())
