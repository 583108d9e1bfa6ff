"""What the benchmark under perfbench/ needs from ghznet by name.

Its tracer wraps each layer's entry points by module and attribute name,
and a name it cannot find turns a traced run into `correct: false`; its
player-profiles workload builds FiniteSizeParams with mc_samples=.  These
tests fail as soon as a change removes either.
"""

import importlib.util
from pathlib import Path

from ghznet.finite import FiniteSizeParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrapped_entry_point():
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_finite_size_params_take_the_workload_arguments():
    fsp = FiniteSizeParams(epsilon=1e-10, block_size=1e6, mc_samples=1000)
    assert fsp.mc_samples == 1000
