"""cellred: exact Weyl-group / Hecke-algebra cell computations and audits."""

__version__ = "0.1.0"
