"""Monte Carlo laboratory for finite-sample Bell-inequality statistics."""

__version__ = "0.1.0"
