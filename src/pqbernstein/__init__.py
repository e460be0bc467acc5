"""Two-parameter Bernstein operators on [0,1] and [0,1]^2: exact and
float evaluation, closed-form moments with exact oracles, convergence
bound certification and asymptotic-error traces."""

__version__ = "0.1.0"
