import pytest

from ncsos import sdp


@pytest.fixture
def no_sdp(monkeypatch):
    """The interior-point solver made unreachable: a finite-group sos job
    is decided in the regular representation without it."""
    def solve_margin_sdp(*args):
        raise AssertionError("the SDP ran on a finite group")

    monkeypatch.setattr(sdp, "solve_margin_sdp", solve_margin_sdp)
