"""Exact homological algebra for hypersurface and complete-intersection
singularities: Koszul dg-modules, matrix factorizations, folding, and
machine-checkable reduction witnesses."""

# The term kernel is pure Python; there is no compiled backend to select.
# The name stays because benchmark reports record it.
BACKEND = "fallback"

__version__ = "0.1.0"
__all__ = ["BACKEND", "__version__"]
