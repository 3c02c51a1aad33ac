"""The four benchmark workloads: the operations one round runs, and their sizes.

Shared by the benchmark command (``run.py``) and the measured process
(``worker.py``).  This module imports nothing from numpy or sibdep, so the
worker can time its set-up from a clean start.

A round runs every operation of its workload once.  A run repeats whole
rounds; all inputs derive from the workload seed.  Rounds repeat the same
inputs, except that ``quenched-scan``, ``particle-paths`` and
``coupled-bookkeeping`` cycle the seed or the random streams
of their estimator through a few values: one cycle of short rounds gathers
the sample their headline estimate and checks need.  An operation is either a ``sibdep``
command run in-process through ``sibdep.cli.main`` (its ``--out`` directory
is appended by the worker), or, where no command exists, a library call.
"""
from __future__ import annotations

from dataclasses import dataclass

PRESETS = ("critical", "subcritical", "supercritical", "deterministic_line",
           "boom_bust", "subcritical_mix")

# quenched-scan: boom_bust mixed at its closed-form critical weight
SCAN_CONFIG = "boom_bust_critical.json"
SCAN_HORIZONS = (6, 64, 128, 256, 512)
SCAN_ROWS = 512                  # one chunk: short rounds, so many fit in a run
SCAN_CYCLE = 32                  # rounds whose rows pool for the headline

# particle-paths: forward batches, then resampled walkers
PATHS_HORIZON = 512
PATHS_REPLICAS = 5_120           # about 80 survivors at horizon 512 per round
PATHS_CYCLE = 16                 # rounds whose survivors pool to about 1300
PATHS_CAP = 10 ** 15
CONDSIZE_HORIZON = 40
CONDSIZE_REPLICAS = 10_000

# spectral-products: calibrate at half the default horizon and replicas, so
# that no operation runs long; lyapunov sized for the 2% check
CALIBRATE_TOL = 1e-3
CALIBRATE_HORIZON = 1000
CALIBRATE_REPLICAS = 256
LYAPUNOV_HORIZON = 64
LYAPUNOV_REPLICAS = 4096
CONDITIONS_HORIZON = 512         # the conditions defaults
CONDITIONS_REPLICAS = 256
PERIODIC_CONFIG = "periodic.json"

# coupled-bookkeeping: C4's presets and horizon
COUPLED_PRESETS = ("critical", "subcritical", "supercritical",
                   "deterministic_line")
COUPLED_HORIZON = 20
COUPLED_TRAJECTORIES = 500     # per operation; streams differ by round
COUPLED_CYCLE = 4               # rounds whose trajectories pool to 2000

# the operation that fails today: power iteration on a periodic mean matrix
EXPECTED_FAILURE = "moments-periodic"


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    ``argv`` holds the sibdep command line without ``--out``; ``preset`` names
    the ensemble of a library call and ``first_stream`` the first of its
    trajectories' random streams.  ``nominal`` is the replica-steps the
    parameters imply (rows times generations or factors), never a count read
    from the program.
    """

    name: str
    nominal: int
    argv: tuple[str, ...] = ()
    preset: str = ""
    first_stream: int = 0


def _cli(name: str, nominal: int, *argv) -> Op:
    return Op(name, nominal, argv=tuple(str(a) for a in argv))


def cycle(workload: str) -> int:
    """Rounds before the inputs repeat; a run makes at least this many."""
    return {"quenched-scan": SCAN_CYCLE, "particle-paths": PATHS_CYCLE,
            "coupled-bookkeeping": COUPLED_CYCLE}.get(workload, 1)


def operations(workload: str, seed: int, work: str, index: int = 0) -> tuple[Op, ...]:
    """The operations of round ``index``; config files are read from ``work``."""
    if workload == "quenched-scan":
        return (_cli("scan", SCAN_ROWS * sum(SCAN_HORIZONS),
                     "scan", "--config", f"{work}/{SCAN_CONFIG}",
                     "--horizons", ",".join(map(str, SCAN_HORIZONS)),
                     "--replicas", SCAN_ROWS,
                     "--seed", SCAN_CYCLE * seed + index % SCAN_CYCLE),)
    if workload == "particle-paths":
        return (
            _cli("paths", PATHS_REPLICAS * PATHS_HORIZON,
                 "paths", "--config", "preset:critical",
                 "--horizon", PATHS_HORIZON, "--replicas", PATHS_REPLICAS,
                 "--cap", PATHS_CAP,
                 "--seed", PATHS_CYCLE * seed + index % PATHS_CYCLE),
            _cli("condsize", CONDSIZE_REPLICAS * CONDSIZE_HORIZON,
                 "condsize", "--config", "preset:subcritical",
                 "--horizon", CONDSIZE_HORIZON, "--method", "resample",
                 "--replicas", CONDSIZE_REPLICAS, "--seed", seed),
        )
    if workload == "spectral-products":
        ops = [
            # one calibration solve counts once, however many bisections
            _cli("calibrate", CALIBRATE_REPLICAS * (CALIBRATE_HORIZON + 1),
                 "calibrate", "--config", "preset:boom_bust",
                 "--tol", CALIBRATE_TOL, "--horizon", CALIBRATE_HORIZON,
                 "--replicas", CALIBRATE_REPLICAS, "--seed", seed),
            # growth rate and theta moment: two product batches
            _cli("lyapunov", 2 * LYAPUNOV_REPLICAS * (LYAPUNOV_HORIZON + 1),
                 "lyapunov", "--config", "preset:subcritical_mix",
                 "--theta", 1, "--horizon", LYAPUNOV_HORIZON,
                 "--replicas", LYAPUNOV_REPLICAS, "--seed", seed),
        ]
        ops += [_cli(f"conditions-{p}",
                     CONDITIONS_REPLICAS * (CONDITIONS_HORIZON + 1),
                     "conditions", "--config", f"preset:{p}",
                     "--horizon", CONDITIONS_HORIZON,
                     "--replicas", CONDITIONS_REPLICAS, "--seed", seed)
                for p in PRESETS]
        ops.append(_cli(EXPECTED_FAILURE, 0, "moments", "--config",
                        f"{work}/{PERIODIC_CONFIG}", "--seed", seed))
        return tuple(ops)
    if workload == "coupled-bookkeeping":
        first = (index % COUPLED_CYCLE) * COUPLED_TRAJECTORIES
        return tuple(Op(f"coupled-{p}", COUPLED_TRAJECTORIES * COUPLED_HORIZON,
                        preset=p, first_stream=first)
                     for p in COUPLED_PRESETS)
    raise KeyError(workload)


WORKLOADS = ("quenched-scan", "particle-paths", "spectral-products",
             "coupled-bookkeeping")


def config_sources(ops) -> list[str]:
    """Every ensemble source the operations read, in first-use order."""
    out = []
    for op in ops:
        src = op.argv[op.argv.index("--config") + 1] if op.argv else f"preset:{op.preset}"
        if src not in out:
            out.append(src)
    return out
