"""``scripts/run_all_exhibits.py``: one global queue over the exhibits."""

import importlib.util
import re
from pathlib import Path
from time import perf_counter

from repro.experiments.figures import EXHIBITS
from repro.experiments.runner import run_experiment
from repro.experiments.storage import save_rows_csv

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "run_all_exhibits.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_all_exhibits", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regeneration_runs_shared_cells_once(tmp_path, capsys):
    out = tmp_path / "out"
    started = perf_counter()
    code = _load_script().main([
        "--tmax", "60", "--only", "table1,fig2,fig3", "--npros-grid", "1,2",
        "--no-cache", "--out", str(out), "--jobs", "0",
    ])
    elapsed = perf_counter() - started
    assert code == 0
    assert elapsed < 5.0

    # fig3 sweeps fig2's grid: every one of its cells is delivered from
    # fig2's run, none is simulated a second time.
    sources = {}
    for spec_key, source in re.findall(
        r"\r  (\w+) \d+/\d+ cells \[(\w+): ", capsys.readouterr().err
    ):
        sources.setdefault(spec_key, []).append(source)
    assert set(sources["fig2"]) == {"run"}
    assert set(sources["fig3"]) == {"shared"}
    assert len(sources["fig3"]) == len(sources["fig2"])

    # fig3's rows equal a standalone run of the same spec.
    spec = EXHIBITS["fig3"]().scaled(tmax=60.0)
    spec = spec.scaled(replace_sweeps={"npros": (1, 2)})
    save_rows_csv(
        run_experiment(spec, cache=False).rows(), tmp_path / "alone.csv"
    )
    assert (out / "fig3.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
