"""Free rigid body periods, inverse Birkhoff normal forms, and the monodromy
of the associated family of elliptic curves.

The package is organized in layers, and each public name is imported from
the module that defines it:

- ``core``: moduli-space value types and cross-ratio conventions
- ``dynamics``: the momentum equations, orbits, and measured periods
- ``special``: elliptic integrals, hypergeometric bases, continuation
- ``periods``: the closed-form period, quadrature routes, identity checks
- ``birkhoff``: the exact rational series of the inverse normal form
- ``monodromy``: integer monodromy matrices of moduli-space loops
- ``cli``: the ``eulertop`` command
"""

__version__ = "0.1.0"
