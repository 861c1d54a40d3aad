"""Partial Hadamard matrices, submagic projector grids, and the semigroups of
partial permutations they generate, together with completion procedures and
their decision criteria."""

__version__ = "0.1.0"
