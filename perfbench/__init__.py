"""Sweep benchmark for quotset; ``run.py`` is the entry point."""
