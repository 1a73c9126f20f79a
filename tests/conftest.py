import pytest

from primebounds import sieve


@pytest.fixture
def one_process(monkeypatch):
    """Keep every scan and fold in this process.

    Tests that record calls through a monkeypatch need it: a forked worker
    runs the patched code, but its records never reach this process.
    """
    monkeypatch.setattr(sieve, "worker_count", lambda spans: 1)
