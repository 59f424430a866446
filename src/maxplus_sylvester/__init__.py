"""Max-plus linear algebra with residuation-based equation solvers.

The library works over the completed max-plus semiring (the reals with
both infinities, max as addition, + as multiplication).  It computes
greatest candidate solutions of linear systems ``A ⊗ x = b``, matrix
equations ``A ⊗ X ⊗ B = C`` and general p-term Sylvester sums
``⊕_k A_k ⊗ X ⊗ B_k = C`` by residuation, decides solvability by
substitution, cross-checks against a brute-force Kronecker
reformulation, and benchmarks both paths with an instrumented operation
counter.

The package root exports the solve, file and benchmark entry points;
kernels and helpers stay importable from their modules.
"""

from .bench import CSV_HEADER, BenchRecord, records_to_csv, run_grid
from .instance_io import (
    GeneratorConfig,
    ParseError,
    format_matrix,
    generate_instance,
    load_matrix,
    parse_matrix,
    save_matrix,
    write_instance,
)
from .matrix import ShapeError, TropicalMatrix
from .oracle import OracleSizeError, oracle_solve
from .solver import (
    SolveReport,
    SylvesterInstance,
    solve_linear,
    solve_sylvester,
    solve_two_sided_special,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "CSV_HEADER",
    "GeneratorConfig",
    "OracleSizeError",
    "ParseError",
    "ShapeError",
    "SolveReport",
    "SylvesterInstance",
    "TropicalMatrix",
    "format_matrix",
    "generate_instance",
    "load_matrix",
    "oracle_solve",
    "parse_matrix",
    "records_to_csv",
    "run_grid",
    "save_matrix",
    "solve_linear",
    "solve_sylvester",
    "solve_two_sided_special",
    "write_instance",
]
