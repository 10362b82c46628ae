"""End-to-end crash safety: SIGINT mid-sweep, then resume.

Launches a real child process running a journalled multi-replication
sweep, interrupts it with SIGINT once the journal shows progress, and
verifies that (a) the interrupted run exits 130 leaving a valid,
loadable journal, and (b) a ``resume`` run completes the sweep with
aggregates bit-identical to an uninterrupted run on a fresh cache.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.journal import read_journal

#: Sweep driver executed in the child process.  The horizon is chosen
#: so each of the 4 cells takes on the order of a second: long enough
#: to interrupt reliably, short enough for the suite.
DRIVER = """
import json
import sys

from repro.core.parameters import SimulationParameters
from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import run_experiment

cache_dir, journal_path, out_path, resume = sys.argv[1:5]
spec = ExperimentSpec(
    key="chaos",
    title="chaos sweep",
    base=SimulationParameters(tmax=8000.0, seed=3),
    sweeps={"ltot": (10, 100)},
)
try:
    result = run_experiment(
        spec,
        replications=2,
        cache=ResultCache(cache_dir),
        journal=journal_path,
        resume=resume == "1",
        watchdog=300.0,
        drain_signals=True,
    )
except KeyboardInterrupt:
    sys.exit(130)
with open(out_path, "w") as handle:
    json.dump(
        {"rows": result.rows(), "resumed": result.stats.resumed},
        handle,
        sort_keys=True,
    )
sys.exit(0)
"""


def _spawn(tmp_path, cache_dir, journal, out, resume):
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    env["REPRO_CACHE"] = "1"
    return subprocess.Popen(
        [
            sys.executable, "-c", DRIVER,
            str(cache_dir), str(journal), str(out), resume,
        ],
        env=env,
        cwd=str(tmp_path),
    )


def _wait_for_progress(journal, timeout=60.0):
    """Block until the journal records at least one completed cell."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(journal) as handle:
                if sum('"done"' in line for line in handle) >= 1:
                    return
        except OSError:
            pass
        time.sleep(0.05)
    raise AssertionError("sweep never recorded progress")


@pytest.mark.slow
def test_sigint_leaves_valid_journal_and_resume_is_bit_identical(tmp_path):
    cache_dir = tmp_path / "cache"
    journal = tmp_path / "chaos.journal"
    out = tmp_path / "resumed.json"

    # Interrupt a running sweep once it has journalled progress.
    proc = _spawn(tmp_path, cache_dir, journal, out, resume="0")
    try:
        _wait_for_progress(journal)
        proc.send_signal(signal.SIGINT)
        returncode = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert returncode == 130
    assert not out.exists()

    # The journal must be a valid prefix: a parsable header, at least
    # one completed cell, and no clean-completion marker.
    header = json.loads(journal.read_text().splitlines()[0])
    done = read_journal(journal, header["sweep"])["done"]
    assert 1 <= len(done) < header["cells"] == 4
    assert not read_journal(journal, header["sweep"])["finished"]

    # Resume: must finish cleanly, crediting the journalled cells.
    proc = _spawn(tmp_path, cache_dir, journal, out, resume="1")
    assert proc.wait(timeout=300) == 0
    resumed = json.loads(out.read_text())
    assert resumed["resumed"] == len(done)
    assert read_journal(journal, header["sweep"])["finished"]

    # Control: the same sweep uninterrupted on a fresh cache.
    clean_out = tmp_path / "clean.json"
    proc = _spawn(
        tmp_path, tmp_path / "clean-cache", tmp_path / "clean.journal",
        clean_out, resume="0",
    )
    assert proc.wait(timeout=300) == 0
    clean = json.loads(clean_out.read_text())

    assert resumed["rows"] == clean["rows"]
