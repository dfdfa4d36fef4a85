"""Executable linear algebra for instanton matrix data, bow complexes and
Nahm flows on the Taub-NUT and caloron geometries.

Subpackages
-----------
numkit       scalar backends, tolerance-aware rank/kernel, common-eigenvector search
monadcore    three-term monads over coordinate charts, fibers, line sections
caloron      caloron matrix data, monads, circle Nahm complexes
taubnut      Taub-NUT matrix data, fused monad, bow complexes
nahmbow      Nahm flows, boundary conditions, spectral curves, finite reduction
diraclattice discretized bow Dirac operator and its numerical kernel
bowcli       command line front end and JSON/CSV formats
"""

__version__ = "0.1.0"
