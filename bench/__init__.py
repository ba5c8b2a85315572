"""Standing wall-clock benchmark (see bench/README.md).

Measures the stack from outside: four pinned workloads, end-to-end
metrics from untraced runs, per-layer metrics from a traced run.
Nothing under ``src/`` is touched; entry point is ``bench/run.py``.
"""
