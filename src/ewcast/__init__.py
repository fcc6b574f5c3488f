"""Expanding-window network-coded layered multicast toolkit."""

__version__ = "0.1.0"
