"""Expanding-window network-coded layered multicast toolkit."""
