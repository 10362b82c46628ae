"""Record the simulated outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs one cycle of every workload at each of :data:`BAND_SEEDS` and at
the held-out seed, and writes ``perfbench/reference.json``:

* ``seeds``: a digest of every cell's outputs at the default and the
  held-out seed;
* ``band``: for each throughput band (every cell of a cell workload,
  each spec of ``regen``), the mean throughput over :data:`BAND_SEEDS`
  (``center``), the range seen there (``observed``) and the relative
  ``tolerance``: :data:`BAND_MARGIN` times the largest relative
  deviation from the centre.  The script refuses a tolerance of 0.5 or
  more, which would let a halved throughput pass.

Takes several minutes.  Re-record only when the model is meant to change.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    REFERENCE_PATH,
    WORKLOADS,
    result_digest,
)

#: Workload seeds whose throughputs set the bands (the held-out seed
#: is not among them).
BAND_SEEDS = range(1, 41)

#: A band's tolerance is this multiple of the largest relative deviation
#: from its centre over :data:`BAND_SEEDS`.
BAND_MARGIN = 1.5


def cycle_cells(workload, seed, workdir):
    state = workload.prepare(seed, workdir)
    cells = []
    for index in range(workload.cycle_length(state)):
        out = workload.run_op(state, index, workdir)
        cells.extend(out.cells)
        if out.scratch is not None:
            shutil.rmtree(out.scratch, ignore_errors=True)
    return cells


def band(values):
    """``{"center", "tolerance", "observed"}`` of one band's throughputs."""
    center = sum(values) / len(values)
    deviation = max(abs(v - center) for v in values) / center
    return {
        "center": center,
        "tolerance": round(BAND_MARGIN * deviation, 3),
        "observed": [min(values), max(values)],
    }


def record(workload, workdir):
    seeds, values = {}, {}
    for seed in sorted({*BAND_SEEDS, DEFAULT_SEED, HELD_OUT_SEED}):
        cells = cycle_cells(workload, seed, workdir)
        if seed in (DEFAULT_SEED, HELD_OUT_SEED):
            seeds[str(seed)] = {label: result_digest(result) for label, result in cells}
        if seed in BAND_SEEDS:
            for name, value in workload.band_groups(cells).values():
                values.setdefault(name, []).append(value)
    bands = {name: band(vals) for name, vals in values.items()}
    for name, entry in bands.items():
        print("{} {}: {}".format(workload.name, name, entry), flush=True)
        if entry["tolerance"] >= 0.5:
            raise SystemExit(
                "{} {}: throughput spreads too widely for a band".format(workload.name, name)
            )
    return {"band": bands, "seeds": seeds}


def main():
    reference = {}
    workdir = tempfile.mkdtemp(prefix="perfbench-ref-", dir=os.path.dirname(HERE))
    try:
        for name, workload in WORKLOADS.items():
            reference[name] = record(workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
