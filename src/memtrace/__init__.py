"""Simulated EPT-based memory tracing and trace analysis toolkit.

The package namespace holds only `__version__`; import the modules
(`memtrace.trace`, `guest`, `recon`, `signature`, `cli`) for the rest.
"""

__version__ = "0.1.0"
