import warnings

import pytest

import ghznet

# When a hypothesis test fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching to suggest an @example patch.  That imports
# libcst, whose type_inference_provider subclasses mypy_extensions.TypedDict,
# which warns DeprecationWarning; under the suite's error::DeprecationWarning
# filter the warning raises inside the plugin's report hook, and the session
# ends in an INTERNALERROR that hides every later test.  Importing the module
# once here, with that warning ignored, leaves the filter as it is.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


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
