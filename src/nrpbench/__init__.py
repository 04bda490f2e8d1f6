"""Release-planning benchmark workbench.

Models the problem of picking a set of customers whose requested
requirements (plus all transitive prerequisites) fit a cost budget while
maximizing total profit.  Ships a seeded instance generator, an ant
colony solver with optional hill-climbing hybridization, three classic
baselines, an exact integer-programming oracle, and a benchmark harness
that compares them on a reproducible run matrix.

The package namespace holds the documented API; solver steps and other
internals are imported from their modules (``nrpbench.aco``,
``nrpbench.local_search``, ``nrpbench.baselines``, ``nrpbench.model``).
"""

from .model import (
    CoverTracker,
    Instance,
    InvalidInstanceError,
    Solution,
    budget,
    closure,
    evaluate,
    make_instance,
)
from .fileformat import (
    ParseError,
    read_instance,
    read_instance_file,
    write_instance,
    write_instance_file,
)
from .generate import (
    GenSpec,
    LevelSpec,
    builtin_names,
    builtin_spec,
    generate,
)
from .aco import AcoParams, run
from .local_search import FhcParams
from .baselines import (
    GraspParams,
    SaParams,
    TooLargeError,
    exact,
)
from .bench import (
    BenchConfig,
    ConfigError,
    FileSource,
    GenSource,
    parse_bench_config,
    run_bench,
    solve_one,
    verify_dump,
)

__version__ = "0.1.0"

__all__ = [
    "AcoParams",
    "BenchConfig",
    "ConfigError",
    "CoverTracker",
    "FhcParams",
    "FileSource",
    "GenSource",
    "GenSpec",
    "GraspParams",
    "Instance",
    "InvalidInstanceError",
    "LevelSpec",
    "ParseError",
    "SaParams",
    "Solution",
    "TooLargeError",
    "budget",
    "builtin_names",
    "builtin_spec",
    "closure",
    "evaluate",
    "exact",
    "generate",
    "make_instance",
    "parse_bench_config",
    "read_instance",
    "read_instance_file",
    "run",
    "run_bench",
    "solve_one",
    "verify_dump",
    "write_instance",
    "write_instance_file",
]
