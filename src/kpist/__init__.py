"""Numerical toolkit for a 2+1-dimensional dispersive inverse-scattering flow.

Pipeline: sample a small real potential on a tensor grid, take its partial
Fourier transform in x, solve the layered Volterra system for the modified
eigenfunctions, assemble the two triangular scattering kernels, evolve them
in time through the phase diagonals of one kernel operator per probe
point (rhp.CTOperator), solve the associated nonlocal boundary-value
factorization, and reconstruct the field together with its
leading/correction split. A de-aliased spectral integrator of the full
nonlinear flow serves as an independent cross-check, and a harness fits
large-time decay exponents along rays in three asymptotic regions.
"""

__version__ = "0.1.0"
