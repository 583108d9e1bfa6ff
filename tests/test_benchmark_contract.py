"""What the benchmark under perfbench/ needs from ghznet by name.

Its tracer wraps each layer's entry points by module and attribute name,
and a name it cannot find turns a traced run into `correct: false`; its
player-profiles workload builds FiniteSizeParams with mc_samples=.  Its
workloads read the rest of the program as `pkg.<name>` attributes of the
package, and the package exports exactly those names.  These tests fail as
soon as a change removes any of them, or exports a name nothing reads.
"""

import importlib.util
import re
import types
from pathlib import Path

import ghznet
from ghznet.finite import FiniteSizeParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_package_exports_exactly_the_names_the_benchmark_reads():
    read = set()
    for path in PERFBENCH.glob("*.py"):
        read |= set(re.findall(r"\bpkg\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    exported = {
        name
        for name, value in vars(ghznet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == {name for name in read if not name.startswith("__")}
    assert isinstance(ghznet.__version__, str)
