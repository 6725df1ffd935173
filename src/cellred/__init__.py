"""cellred: exact Weyl-group / Hecke-algebra cell computations and audits."""

__version__ = "0.1.0"

from .rootdata import CartanType, Weight, build_root_system, weyl_dim
from .coxeter import WeylGroup, generate
from .poly import IntPoly

__all__ = [
    "CartanType",
    "Weight",
    "WeylGroup",
    "IntPoly",
    "build_root_system",
    "generate",
    "weyl_dim",
    "__version__",
]
