"""Public-API contract tests: everything advertised imports and works."""

import importlib

import pytest

import repro


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.cache",
            "repro.config",
            "repro.config_io",
            "repro.core",
            "repro.experiments",
            "repro.ml",
            "repro.noc",
            "repro.power",
            "repro.traffic",
            "repro.viz",
        ],
    )
    def test_subpackages_import(self, module):
        imported = importlib.import_module(module)
        assert imported is not None

    @pytest.mark.parametrize(
        "module",
        [
            "repro.cache",
            "repro.core",
            "repro.ml",
            "repro.noc",
            "repro.power",
            "repro.traffic",
            "repro.viz",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        imported = importlib.import_module(module)
        for name in imported.__all__:
            assert hasattr(imported, name), f"{module}.{name}"

    def test_quickstart_docstring_code_runs(self):
        """The README/module quickstart snippet stays valid."""
        from repro import PearlConfig, PearlNetwork, PowerPolicyKind
        from repro.config import SimulationConfig
        from repro.traffic import generate_pair_trace, get_benchmark

        config = PearlConfig(
            simulation=SimulationConfig(warmup_cycles=50, measure_cycles=400)
        )
        trace = generate_pair_trace(
            get_benchmark("fluidanimate"),
            get_benchmark("dct"),
            config.architecture,
            duration=config.simulation.total_cycles,
        )
        network = PearlNetwork(
            config, power_policy=PowerPolicyKind.REACTIVE
        )
        result = network.run(trace)
        assert result.throughput() >= 0.0
        assert result.mean_laser_power_w > 0.0

    def test_cli_entry_point_exists(self):
        from repro.cli import main

        assert callable(main)

    def test_experiment_registry_complete(self):
        from repro.experiments import REGISTRY

        for fig in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                    "fig10", "fig11"):
            assert fig in REGISTRY
        for table in ("table1", "table2", "table5"):
            assert table in REGISTRY
