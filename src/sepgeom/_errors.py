"""The error every sepgeom check raises for invalid input, in a module of
its own so that the numpy-free code (bounds, the CLI) can raise and catch
it without loading numpy."""


class GeometryError(ValueError):
    """Raised for invalid geometric input (degenerate, asymmetric, ...)."""
