"""The benchmark's workloads: inputs made from the seed, one operation, checks.

An *operation* is one simulation cell.  ``heavyload`` and ``locktable``
run one cell per operation, cycling through :data:`CELLS_PER_SEED`
cells whose seeds derive from the workload seed; ``regen`` runs one
cold regeneration of reduced exhibit grids per operation, which is
one operation per cell it simulates.  The workload seed only ever
reaches ``SimulationParameters.seed``.

Everything that touches ``repro`` is imported inside functions, so
this module loads before ``src`` is on the path.
"""

import hashlib
import json
import math
import os

DEFAULT_SEED = 1
#: Not used while the benchmark was tuned; later claims are re-checked on it.
HELD_OUT_SEED = 97

#: Distinct cells a cell workload cycles through (averages out the
#: seed-to-seed spread of one cell's work).
CELLS_PER_SEED = 4

#: Wall-clock budget of one cell; a cell that exceeds it has stalled.
CELL_TIMEOUT_S = 120.0

#: Utilization and busy-time identities allow this much float slack.
_EPS = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def cell_seeds(seed):
    """Seeds of the cells a cell workload runs for workload *seed*."""
    return [seed * CELLS_PER_SEED + j for j in range(CELLS_PER_SEED)]


def result_digest(result):
    """Short digest of every simulated output of one cell."""
    from repro.core.results import RESULT_FIELDS

    document = {name: getattr(result, name) for name in RESULT_FIELDS}
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def identity_violations(result):
    """Names of the accounting identities *result* breaks."""
    broken = []
    for name in ("cpu_utilization", "io_utilization"):
        value = getattr(result, name)
        if not (-_EPS <= value <= 1.0 + _EPS):
            broken.append(name + " outside [0, 1]")
    if result.lockcpus > result.totcpus + _EPS:
        broken.append("lockcpus > totcpus")
    if result.lockios > result.totios + _EPS:
        broken.append("lockios > totios")
    if result.lock_denials > result.lock_requests:
        broken.append("lock_denials > lock_requests")
    if result.totcom <= 0:
        broken.append("totcom == 0")
    if not math.isfinite(result.throughput):
        broken.append("throughput not finite")
    return broken


class CellWorkload:
    """One model cell per operation, built straight from parameters."""

    kind = "cell"

    def __init__(self, name, **fields):
        self.name = name
        self.fields = fields

    def inputs(self, seed):
        """The :class:`SimulationParameters` of every cell for *seed*."""
        from repro.core.parameters import SimulationParameters

        return [SimulationParameters(seed=s, **self.fields) for s in cell_seeds(seed)]

    def prepare(self, seed, workdir):
        """Set-up: validate every cell's parameters and build the first model."""
        from repro.core.model import LockingGranularityModel

        params = self.inputs(seed)
        for p in params:
            p.validate()
        LockingGranularityModel(params[0])
        return params

    def cycle_length(self, state):
        return len(state)

    def cells_per_op(self, state):
        return 1

    def run_op(self, state, index, workdir):
        """Simulate cell *index* (mod the cycle); returns an :class:`OpOutput`."""
        from repro.core.model import LockingGranularityModel

        params = state[index % len(state)]
        model = LockingGranularityModel(params)
        result = model.run(timeout=CELL_TIMEOUT_S)
        return OpOutput([("seed={}".format(params.seed), result)])

    def band_groups(self, cells):
        """{cell label: (band, throughput)}; every cell shares the ``cell`` band."""
        return {label: ("cell", result.throughput) for label, result in cells}


class RegenWorkload:
    """A cold, inline regeneration of reduced exhibit grids per operation.

    Each operation runs :func:`repro.experiments.runner.run_experiments`
    with ``jobs=0`` into a fresh :class:`ResultCache` directory (cache
    puts, manifests and journals included).  Every spec has its own
    horizon, long enough that every cell commits at every seed.
    """

    kind = "regen"

    #: (exhibit builder name, tmax, ltot grid, npros grid or None).
    GRIDS = (
        ("figure2", 600.0, (2, 50, 1000), (1, 5, 10)),
        ("figure10", 40.0, (50, 1000, 5000), (30,)),
        ("figure12", 60.0, (10,), None),
    )

    def __init__(self, name):
        self.name = name

    def inputs(self, seed):
        """The scaled :class:`ExperimentSpec` list for *seed*."""
        from repro.experiments import figures

        specs = []
        for builder, tmax, ltots, npros in self.GRIDS:
            sweeps = {"npros": npros} if npros is not None else None
            spec = getattr(figures, builder)().scaled(
                tmax=tmax, ltot_grid=ltots, replace_sweeps=sweeps, seed=seed
            )
            specs.append(spec)
        return specs

    def prepare(self, seed, workdir):
        """Set-up: build and validate the spec list.

        Each operation creates its own fresh cache directory, as a cold
        regeneration does, so that is timed in the operation.
        """
        specs = self.inputs(seed)
        for spec in specs:
            for p in spec.configurations():
                p.validate()
        return specs

    def cycle_length(self, state):
        return 1

    def cells_per_op(self, state):
        return sum(len(spec.configurations()) for spec in state)

    def run_op(self, state, index, workdir):
        """One regeneration into ``workdir/regen-<index>``."""
        from time import perf_counter

        from repro.experiments import runner
        from repro.experiments.cache import ResultCache

        root = os.path.join(workdir, "regen-{}".format(index))
        delivered = []
        started = perf_counter()
        results = runner.run_experiments(
            state,
            jobs=0,
            cache=ResultCache(os.path.join(root, "cache")),
            journals=[os.path.join(root, spec.key + ".journal") for spec in state],
            watchdog=CELL_TIMEOUT_S,
            cell_progress=lambda done, total, info: delivered.append(perf_counter()),
        )
        cells = []
        for spec, experiment in zip(state, results):
            for outcome in experiment.outcomes:
                label = "{}|{}".format(
                    spec.key,
                    ",".join(
                        "{}={}".format(name, getattr(outcome.params, name))
                        for name in spec.sweeps
                    ),
                )
                for result in outcome.results:
                    cells.append((label, result))
        gaps = [b - a for a, b in zip([started] + delivered[:-1], delivered)]
        return OpOutput(cells, cell_seconds=gaps, scratch=root)

    def band_groups(self, cells):
        """{spec key: (spec key, summed throughput of its cells)}."""
        sums = {}
        for label, result in cells:
            key = label.split("|", 1)[0]
            sums[key] = sums.get(key, 0.0) + result.throughput
        return {key: (key, value) for key, value in sums.items()}


class OpOutput:
    """What one operation produced: labelled cell results and timings."""

    def __init__(self, cells, cell_seconds=None, scratch=None):
        self.cells = cells
        self.cell_seconds = cell_seconds
        self.scratch = scratch


#: The workloads, by name.
WORKLOADS = {
    "heavyload": CellWorkload(
        "heavyload",
        ntrans=200,
        npros=20,
        maxtransize=500,
        ltot=10,
        placement="best",
        partitioning="horizontal",
        conflict_engine="probabilistic",
        protocol="preclaim",
        tmax=300.0,
    ),
    "locktable": CellWorkload(
        "locktable",
        dbsize=5000,
        ltot=5000,
        conflict_engine="explicit",
        protocol="incremental",
        write_fraction=0.5,
        npros=1,
        ntrans=50,
        maxtransize=50,
        tmax=10000.0,
    ),
    "regen": RegenWorkload("regen"),
}


def load_reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


class OutputCheck:
    """Checks every cell of a workload's operations against the reference.

    A cell fails when it breaks an accounting identity or its band
    group (the cell itself, or its spec for ``regen``) leaves the
    band recorded in ``reference.json`` (centre and tolerance, see
    ``record_reference.py``); an operation that raised fails all its
    cells (the caller counts those).  ``identical`` compares digests with the
    recorded reference for this seed: 1 all match, 0 some differ, -1
    no reference was recorded for the seed.
    """

    def __init__(self, workload, seed, reference):
        self.workload = workload
        self.reference = reference[workload.name]
        self.expected = self.reference["seeds"].get(str(seed))
        self.messages = []
        self.mismatches = 0
        self.compared = 0

    def check(self, cells):
        """Number of failed cells among *cells* (and record identity)."""
        failed = set()
        for position, (label, result) in enumerate(cells):
            broken = identity_violations(result)
            if broken:
                failed.add(position)
                self.messages.append("{}: {}".format(label, "; ".join(broken)))
            if self.expected is not None and label in self.expected:
                self.compared += 1
                if result_digest(result) != self.expected[label]:
                    self.mismatches += 1
        for group, (band, value) in self.workload.band_groups(cells).items():
            center = self.reference["band"][band]["center"]
            tolerance = self.reference["band"][band]["tolerance"]
            if abs(value - center) > tolerance * center:
                self.messages.append(
                    "{}: throughput {:.6g} outside {:.6g} +/- {:.0%}".format(
                        group, value, center, tolerance
                    )
                )
                for position, (label, _) in enumerate(cells):
                    if label == group or label.startswith(group + "|"):
                        failed.add(position)
        return len(failed)

    @property
    def identical(self):
        if self.expected is None or self.compared == 0:
            return -1
        return 1 if self.mismatches == 0 else 0
