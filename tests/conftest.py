import pytest

import ghznet


@pytest.fixture
def memory_draws(monkeypatch):
    """Party counts of every memory Monte Carlo run, in call order.  The
    process-wide memo of draws is cleared on entry and exit, so the counts
    do not depend on which tests ran before."""
    calls = []
    original = ghznet.analysis.expected_memory_qbers

    def counted(cfg, *args, **kwargs):
        calls.append(cfg.n_parties)
        return original(cfg, *args, **kwargs)

    monkeypatch.setattr(ghznet.analysis, "expected_memory_qbers", counted)
    ghznet.analysis._memory_qbers.cache_clear()
    yield calls
    ghznet.analysis._memory_qbers.cache_clear()
