"""Closed-loop wall-clock benchmark of the serve tier (see README.md)."""
