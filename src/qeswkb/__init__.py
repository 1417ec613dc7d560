"""Numerical toolkit for quasi-exactly-solvable anharmonic wells.

Provides high-accuracy bound-state spectra on spectral meshes,
semiclassical phase integrals and quantization corrections, finite
algebraic blocks with exact levels, first-order factorization
(partner-potential) machinery, and rational interpolation models for
spectra and corrections.  Import the submodules directly: ``potentials``,
``eigensolver``, ``wkb``, ``qes_algebra``, ``fitmodels``, ``cli`` and
``errors``.
"""

__version__ = "0.1.0"
