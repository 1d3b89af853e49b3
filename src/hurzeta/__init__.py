"""hurzeta: Hurwitz zeta at integer order, its generating function, and the
supporting singular quadrature, with cross-validating convergence scans.

Public surface re-exported here: every name in each module's ``__all__``,
imported eagerly; see the module docstrings for the math.
"""

from . import errors, genfun, hurwitz, quadrature, special_functions, validation

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (errors, quadrature, special_functions, hurwitz, genfun, validation):
    globals().update({name: getattr(_module, name) for name in _module.__all__})
    __all__ += _module.__all__
del _module
