"""Exact tools for candidate Laurent-polynomial mirrors of Fano threefolds.

Everything is computed over exact integers and rationals: sparse Laurent
polynomial arithmetic, constant-term period series, Newton and dual
polytopes with normalized volumes and Ehrhart counts, annihilating
differential operators, the standard construction recipes, and a bundled
corpus of seventeen rank-1 Fano threefold models with batch verification.

The top level holds only the names of README's library tour; import the rest
from its module."""

from .annihilator import find_minimal_annihilator
from .constructors import hori_vafa_ci
from .corpus import get_entry, verify_entry
from .polytopes import dual_polytope, newton_polytope, normalized_volume
from .series import constant_term_series

__all__ = [
    "constant_term_series", "dual_polytope", "find_minimal_annihilator", "get_entry",
    "hori_vafa_ci", "newton_polytope", "normalized_volume", "verify_entry",
]
