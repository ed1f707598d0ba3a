"""Exact sheaf-counting invariants via fixed-point sums and fibration tables.

Two computational pillars, tied together by cross-checks:

* torus fixed-point sums on Hilbert schemes of points of the plane, in
  one equivariant parameter t (`partitions`, `localization`): the
  symbolic sum adds fractions of products of integer linear forms
  i t + j over one common denominator, as big integers at one packed
  point t = 2^B, and sampled mode certifies its legs at integer points
  before taking the same sum; a single
  fixed-point contribution is a scale times primitive linear forms over
  such forms, with the common forms cancelled, which is canonical, so the
  two routes to it can be compared; contributions are compared and
  printed, never added: every sum of them goes through the packed sum;

* invariants of K3-fibered threefolds assembled from intersection-number
  tables, with generating series handled as exact truncated q-expansions
  on fractional grids (`qseries`, `nl_dt`).

Everything is exact: integers and fractions.Fraction, no floating point.
"""

from .errors import ConsistencyError, NLValidationError
from .localization import (
    DEFAULT_SEED,
    fixed_point_contribution,
    contribution_from_characters,
    hilb_chern_integral,
    obstruction_character,
    tangent_character,
)
from .nl_dt import (
    FibrationSpec,
    HilbertPolyK3,
    MukaiVector,
    NLTable,
    dt_from_nl,
    dt_symmetry_pair,
    hilb_index,
    moduli_dim,
    nl_dump,
    nl_load,
    nl_load_path,
    nl_loads,
    nl_symmetry_extend,
    phi_series,
    z_series_closed,
    z_series_direct,
)
from .partitions import (
    arm,
    boxes,
    enumerate_partitions,
    enumerate_triples,
    leg,
)
from .qseries import (
    PuiseuxSeries,
    goettsche_series,
    hilb_euler,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError", "NLValidationError",
    "DEFAULT_SEED", "fixed_point_contribution",
    "contribution_from_characters", "hilb_chern_integral",
    "obstruction_character", "tangent_character",
    "FibrationSpec", "HilbertPolyK3", "MukaiVector", "NLTable",
    "dt_from_nl", "dt_symmetry_pair", "hilb_index", "moduli_dim",
    "nl_dump", "nl_load", "nl_load_path", "nl_loads",
    "nl_symmetry_extend", "phi_series", "z_series_closed", "z_series_direct",
    "arm", "boxes", "enumerate_partitions", "enumerate_triples", "leg",
    "PuiseuxSeries", "goettsche_series", "hilb_euler",
    "__version__",
]
