"""Exact enumeration of non-intersecting lattice-path models and the
numerical extraction of their arctic curves from tangent-line families.

The package is layered: exact combinatorics (`combinat`), exact rational
linear algebra (`linalg`), log-space sums (`logspace`), the model registry
(`models`) with one module per model family and its closed forms
(`models.aztec`, `models.halfhex`, `models.staircase`, `models.vsasm`),
independent brute-force enumerators (`oracle`), the saddle-point / tangent
machinery (`tangent`), the closed-form limit curves (`curves`), and a
command-line front end (`cli`).  The paper's reference formulas that only the
tests evaluate (`paper`) sit beside the registry; no command imports them.
"""

__version__ = "0.1.0"
