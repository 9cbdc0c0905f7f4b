"""The benchmark's configs and both recipes pass the config gate.

``perfbench/run.py`` runs ``gradflow validate`` and then ``gradflow run`` on
every workload config in ``perfbench/workloads.py``, so a parse rule that
refused one would otherwise show up only as a failed benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from gradflow.cli import main
from gradflow.config import parse_config

ROOT = Path(__file__).resolve().parents[1]


def _workloads() -> dict:
    """``WORKLOADS`` of perfbench/workloads.py, loaded without editing it.

    The module imports its sibling ``checks``, so perfbench/ is on sys.path
    for that import only.
    """
    bench = str(ROOT / "perfbench")
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    sys.path.insert(0, bench)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(bench)
    return module.WORKLOADS


CONFIGS = {f"workload:{name}": w.config(1) for name, w in _workloads().items()}
CONFIGS.update({f"recipe:{path.name}": path.read_text()
                for path in sorted((ROOT / "recipes").glob("*.yaml"))})


def test_every_workload_and_both_recipes_are_covered():
    assert {"workload:ula_dw1d", "workload:bdl_bimodal", "workload:fpe_ou_fine",
            "workload:mala_10d_io", "recipe:fig2_basins.yaml",
            "recipe:fig3_langevin_histograms.yaml"} <= set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_benchmark_config_passes_parse_and_validate(tmp_path, capsys, name):
    parse_config(CONFIGS[name])
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(CONFIGS[name])
    assert main(["validate", str(cfg_path)]) == 0, capsys.readouterr().err
