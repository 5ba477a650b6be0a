"""Bit-exact p-bit float workbench.

Exact low-precision floating point (`floats`), correctly-rounded elementary
functions (`elementary`), matrices and evaluation contexts (`matrices`,
`contexts`), a selective state-space forward pass (`mamba`), a symbolic
circuit-depth calculus with execution tracing (`depth`), threshold-circuit
IR and synthesis (`circuits`, `synthesis`), and evaluators for canonical
NC1-complete problems (`hardness`).

The package exports every name its library modules export: each module's
``__all__`` is the one list of its public names, and this ``__all__`` is
their concatenation.
"""

from artifact.circuits import *
from artifact.contexts import *
from artifact.depth import *
from artifact.elementary import *
from artifact.floats import *
from artifact.hardness import *
from artifact.mamba import *
from artifact.matrices import *
from artifact.synthesis import *

# Importing a submodule binds it in this namespace, so each is in scope here.
__all__ = (
    circuits.__all__
    + contexts.__all__
    + depth.__all__
    + elementary.__all__
    + floats.__all__
    + hardness.__all__
    + mamba.__all__
    + matrices.__all__
    + synthesis.__all__
)
