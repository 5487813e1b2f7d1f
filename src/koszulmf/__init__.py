"""Exact homological algebra for hypersurface and complete-intersection
singularities: Koszul dg-modules, matrix factorizations, folding, and
machine-checkable reduction witnesses."""

# The term arithmetic (`koszulmf.ring`) is pure Python, with no compiled
# backend to select; the name stays because benchmark reports record it.
BACKEND = "fallback"

__version__ = "0.1.0"
__all__ = ["BACKEND", "__version__"]
