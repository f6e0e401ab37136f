"""The repository benchmark: workloads, tracing and metric arithmetic.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md``.
"""
