"""defalg: exact deformation algebra over the rationals.

Graded linear algebra, nilpotent dg-algebras, DGLA Maurer-Cartan theory
with gauge action, L-infinity structures on symmetric coalgebras,
obstruction calculus, tangent brackets, and minimal / prorepresenting
models — all in exact rational arithmetic.
"""

__version__ = "0.1.0"
