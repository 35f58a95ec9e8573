"""Exact polytope volumes, lattice counts, Ehrhart quasipolynomials and
IAC voting-event probabilities.

The API lives in the submodules: ``polyvote.linalg``,
``polyvote.polytope``, ``polyvote.ehrhart``, ``polyvote.socialchoice``
and the command line in ``polyvote.cli``."""

__version__ = "0.1.0"
