"""repro — reproduction of "Techniques for Bandwidth-Efficient Prefetching
of Linked Data Structures in Hybrid Prefetching Systems" (HPCA 2009).

Public API quick map:

* :func:`repro.run_benchmark` / :func:`repro.run_multicore` — run a
  benchmark analog under any mechanism preset ("baseline", "cdp",
  "ecdp+throttle", ...) and get IPC / BPKI / accuracy / coverage.
* :mod:`repro.prefetch` — stream, CDP/ECDP, Markov, GHB, DBP prefetchers.
* :mod:`repro.compiler` — pointer-group profiling and hint bit vectors.
* :mod:`repro.throttle` — coordinated throttling plus FDP and Gendler
  baselines.
* :mod:`repro.workloads` — the 15 pointer-intensive benchmark analogs and
  the streaming set.
* :mod:`repro.cost` — the Table 7 hardware cost model.
* :mod:`repro.experiments.engine` — resilient sweep execution:
  crash-isolated parallel jobs, timeouts, retries, checkpoint-resume.
* :mod:`repro.errors` — the :class:`~repro.errors.ReproError` taxonomy
  every structured failure derives from.
"""

from repro.core.config import SystemConfig
from repro.core.stats import CoreResult
from repro.errors import (
    ConfigError,
    ReproError,
    UnknownNameError,
)
from repro.experiments.configs import MECHANISMS, Mechanism, get_mechanism
from repro.experiments.engine import (
    CheckpointJournal,
    ExecutionEngine,
    Job,
    RetryPolicy,
)
from repro.experiments.runner import (
    profile_benchmark,
    run_benchmark,
    run_multicore,
)
from repro.workloads.registry import (
    all_names,
    get_workload,
    non_pointer_names,
    pointer_intensive_names,
)

__version__ = "1.0.0"

__all__ = [
    "CheckpointJournal",
    "ConfigError",
    "CoreResult",
    "ExecutionEngine",
    "Job",
    "MECHANISMS",
    "Mechanism",
    "ReproError",
    "RetryPolicy",
    "SystemConfig",
    "UnknownNameError",
    "all_names",
    "get_mechanism",
    "get_workload",
    "non_pointer_names",
    "pointer_intensive_names",
    "profile_benchmark",
    "run_benchmark",
    "run_multicore",
    "__version__",
]
