"""Import budgets: each command loads only the modules it runs.

Every check runs in a fresh interpreter, so what one test imported
cannot hide what another would have.  The budgets are exact and
machine-independent: a module is either in ``sys.modules`` or not.
"""

import importlib.util
import os

import pytest

import repro

_spec = importlib.util.spec_from_file_location(
    "import_budget", os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "benchmarks", "import_budget.py"))
import_budget = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(import_budget)
cli_code = import_budget.cli_code
PROBES = dict(import_budget.PROBES)

#: The simulator: kernel IR, CPU/GPU/fluid simulation, operand arrays,
#: and the NumPy they compute with.
SIMULATOR = ("numpy", "repro.ir", "repro.sim", "repro.sched", "repro.gpu",
             "repro.arrays")

#: Also off-limits to ``import repro.cli``: tracing, chaos drills and
#: the daemon (a client must not import the server).
CLI_FORBIDDEN = SIMULATOR + ("repro.trace", "repro.chaos",
                             "repro.service.daemon")


def _loaded(code, tmp_path):
    """Modules loaded after running ``code`` in a fresh interpreter (the
    same probe ``make imports`` prints)."""
    return set(import_budget.loaded_modules(code, str(tmp_path)))


def _under(modules, packages):
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in packages))


def test_import_cli_loads_no_simulator_tracing_chaos_or_daemon(tmp_path):
    loaded = _loaded(PROBES["import repro.cli"], tmp_path)
    assert "repro.cli" in loaded
    assert _under(loaded, CLI_FORBIDDEN) == []


def test_warm_full_report_never_imports_numpy(tmp_path):
    report = PROBES["warm repro report --full"]
    cold = _loaded(report, tmp_path)
    assert "numpy" in cold  # the cold run simulated every cell
    warm = _loaded(report, tmp_path)
    assert _under(warm, SIMULATOR) == ["repro.sim", "repro.sim.faults",
                                       "repro.sim.variability"]


@pytest.mark.parametrize("argv", [["status"], ["submit", "--help"],
                                  ["serve", "--stop"]])
def test_service_clients_import_no_simulator(tmp_path, argv):
    loaded = _loaded(cli_code(argv), tmp_path)
    assert "repro.cli" in loaded
    assert _under(loaded, SIMULATOR + ("repro.service.daemon",)) == []


def test_load_simulator_covers_every_import_a_cell_makes(tmp_path):
    sweep = cli_code(["run", "--no-journal", "--models", "julia,numba",
                      "--sizes", "256"])
    gpu = cli_code(["run", "--no-journal", "--models", "julia,numba",
                    "--sizes", "256", "--device", "gpu", "--node", "wombat"])
    executed = _loaded(gpu + sweep, tmp_path)
    warm = _loaded("from repro.harness.runner import load_simulator\n"
                   "load_simulator()\n" + gpu + sweep, tmp_path)
    assert sorted(m for m in executed - warm
                  if m.startswith(("repro", "numpy"))) == []


def test_core_never_imports_harness(tmp_path):
    loaded = _loaded("import repro.core.cascade, repro.core.efficiency, "
                     "repro.core.metrics, repro.core.productivity, "
                     "repro.core.types", tmp_path)
    assert _under(loaded, ("repro.harness",)) == []


def test_import_repro_loads_no_submodule(tmp_path):
    loaded = _loaded("import repro", tmp_path)
    assert _under(loaded, ("repro",)) == ["repro", "repro._lazy",
                                          "repro._version"]


@pytest.mark.parametrize("name", repro.__all__)
def test_every_export_imports_and_is_listed(name):
    namespace = {}
    exec(f"from repro import {name}", namespace)
    assert namespace[name] is getattr(repro, name)
    assert name in dir(repro)


def test_export_named_like_its_submodule_stays_the_export():
    import repro.core.cascade
    import repro.gpu.occupancy
    from repro.core import cascade
    from repro.gpu import occupancy

    assert callable(cascade) and cascade.__name__ == "cascade"
    assert callable(occupancy) and occupancy.__name__ == "occupancy"
