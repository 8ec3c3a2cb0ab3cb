"""Exact sums-of-squares certification for group algebras and free *-algebras.

Subpackages / modules:

- ``rcf``        -- exact polynomials in a positive infinitesimal,
                    polynomial functionals, square-root-free PSD testing
- ``cones``      -- finitely generated rational cones and lexicographic
                    separating functionals
- ``groupalg``   -- exact group-algebra / free *-algebra arithmetic
- ``soscone``    -- Gram-matrix feasibility, exact certificate rounding,
                    absorption and Laplacian-domination bounds, Kazhdan
                    constants for finite groups
- ``repwitness`` -- GNS spaces, unitary dilations and replayable refutation
                    witnesses
- ``cli``        -- command line front end (``python -m ncsos``)
"""

__version__ = "0.1.0"

import os
import sys

# One BLAS thread unless the environment asks for more, set before any
# submodule imports numpy: the SDP's dense systems are small, threaded
# BLAS is slower on them whenever another core is busy, and the thread
# count changes the last digits of the numeric hints.  ``sos --jobs``
# is the way to run in parallel.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")

# The thread variables numpy reads when it is first imported, which is
# after this point, or None when numpy was imported before ncsos: its
# thread count was then fixed by an environment ncsos never saw.
BLAS_THREADS = None if "numpy" in sys.modules else {
    _var: os.environ[_var] for _var in _BLAS_VARS}
