"""Free rigid body periods, inverse Birkhoff normal forms, and the monodromy
of the associated family of elliptic curves.

The package is organized in layers, and each public name is imported from
the module that defines it:

- ``core``: moduli-space value types and the one cross-ratio
- ``special``: K, and F and F' of the hypergeometric equation, from one AGM
- ``periods``: the closed-form period, quadrature routes, identity checks
- ``birkhoff``: the exact rational series of the inverse normal form
- ``lattice``: the stated integer monodromy matrices and their algebra
- ``dynamics``: the momentum equations, orbits, and measured periods
- ``monodromy``: germ transport along paths, and the integer monodromy
  matrices of moduli-space loops as their cut-crossing words
- ``verify``: the check battery, one table of checks run into one report
- ``cli``: the ``eulertop`` command

No layer imports numpy: ``dynamics`` steps each orbit in Python floats,
and the other layers are scalar, exact or integer code.
"""

__version__ = "0.1.0"
