"""Exact-arithmetic toolkit for the positive-primitive calculus of modules
over finite-dimensional algebras: evaluation and duality of pp formulas,
Krull-Schmidt decomposition, one-point extension towers with a full
finitely-presented classification, ray-tube mesh calculus with a verified
tower realization, and a symbolic closure engine for the spectra of
indecomposable pure-injectives."""

__version__ = "0.1.0"
