from fractions import Fraction
from pathlib import Path

import pytest

from primebounds import sieve

PRINTED = Path(__file__).parent / "data" / "printed_polynomials.txt"


@pytest.fixture
def one_process(monkeypatch):
    """Keep every scan and fold in this process.

    Tests that record calls through a monkeypatch need it: a forked worker
    runs the patched code, but its records never reach this process.
    """
    monkeypatch.setattr(sieve, "worker_count", lambda spans: 1)


@pytest.fixture(scope="session")
def printed():
    """The paper's printed polynomials: name -> its (degree, coefficient) terms."""
    polys = {}
    for line in PRINTED.read_text().splitlines():
        if line and not line.startswith("#"):
            name, *coeffs = line.split()
            polys[name] = [(d, Fraction(c)) for d, c in enumerate(coeffs)]
    return polys
