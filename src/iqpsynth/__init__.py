"""Compile probability distributions into hidden-qubit IQP circuits.

The pipeline: validate a distribution (probdist), decompose it into
2-sparse mixture components or a dyadic multiplicity map (decompose),
turn those into diagonal phase tables and optionally X-rotation gates
(synth), write and read them as circuit text (circuit), and check the
result by exact simulation (sim).  The cli module wires the same steps
into the iqpsynth command.  The package root exports the quick-start
names; everything else lives in its submodule.
"""

from .probdist import tv_distance, validate
from .sim import marginal_mixture, simulate_gates
from .synth import exact_phase_table, walsh_lower

__version__ = "0.1.0"
