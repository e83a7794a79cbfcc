"""satcloak — instance randomization for privacy-preserving SAT outsourcing.

Hand a hard instance to an untrusted solver without revealing what it is:
randomize it first (so the provider sees an unrelated-looking instance),
then map the returned solution back with a client-held secret and verify
it against the original.  Three interchangeable randomizers cover plain
SAT, and two carrier pipelines extend them to optimization and to a
concrete application:

* ``isomorph`` — variable permutation plus polarity flips (an isomorphic
  instance; cheapest, weakest hiding);
* ``matrixrand`` — encode a 3CNF as a 0/1 linear system ``AX = B`` and
  multiply by a secret full-rank matrix ``R``;
* ``solsetrand`` — change variables by ``Y = RX`` over GF(2), re-encoding
  each clause of XORs back into 3CNF;
* ``objective`` — Mincost SAT (compile the cost function into an adder
  circuit, then randomize) and the MAX3SAT reduction onto it;
* ``firewall`` — firewall-policy equivalence checking as CNF, with field
  -value randomization, as the worked application.

``disguise`` holds the three SAT randomizers in one table, which the CLI,
the orchestrator and the Mincost wrapper look them up in.  ``oracles``
holds the exhaustive solvers that back every correctness claim at test
scale, and ``orchestrator`` simulates the full outsourcing protocol round
with honest, lazy, and malicious providers.
"""

from .cnf import (
    CnfInstance,
    DimacsError,
    InvalidSolutionError,
    emit_dimacs,
    parse_dimacs,
    to_three_cnf,
)
from .gf2 import BitMatrix, gf2_invert, gf2_rank, random_full_rank
from .isomorph import IsoSecret, iso_derandomize, iso_randomize
from .matrixrand import (
    LinearSystem,
    MatrixSecret,
    emit_opb,
    encode_linear,
    parse_opb,
    randomize_system,
)
from .objective import (
    Max3SatInstance,
    MincostInstance,
    derandomize_mincost,
    max3sat_to_mincost,
    randomize_mincost,
)
from .firewall import (
    FirewallPolicy,
    FirewallRule,
    HeaderLayout,
    equivalence_cnf,
    map_fields,
    parse_policy,
)
from .oracles import brute_linear, brute_mincost, brute_max3sat, brute_sat
from .orchestrator import RandomizationRecord, outsource, validate_solution
from .solsetrand import GfSecret, gf_derandomize, gf_randomize

__version__ = "0.1.0"

__all__ = [
    "CnfInstance",
    "DimacsError",
    "InvalidSolutionError",
    "emit_dimacs",
    "parse_dimacs",
    "to_three_cnf",
    "BitMatrix",
    "gf2_invert",
    "gf2_rank",
    "random_full_rank",
    "IsoSecret",
    "iso_derandomize",
    "iso_randomize",
    "LinearSystem",
    "MatrixSecret",
    "emit_opb",
    "encode_linear",
    "parse_opb",
    "randomize_system",
    "Max3SatInstance",
    "MincostInstance",
    "derandomize_mincost",
    "max3sat_to_mincost",
    "randomize_mincost",
    "FirewallPolicy",
    "FirewallRule",
    "HeaderLayout",
    "equivalence_cnf",
    "map_fields",
    "parse_policy",
    "brute_linear",
    "brute_mincost",
    "brute_max3sat",
    "brute_sat",
    "RandomizationRecord",
    "outsource",
    "validate_solution",
    "GfSecret",
    "gf_derandomize",
    "gf_randomize",
    "__version__",
]
