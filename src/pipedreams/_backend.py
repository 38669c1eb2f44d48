"""The lattice kernel is always the pure-Python one (``_lattice_py``).

``KERNEL_COMPILED`` stays only because ``perfbench/run.py`` reads it in every
pass; delete this module when the benchmark drops its kernel metrics
(ROADMAP item 1).
"""

KERNEL_COMPILED = False
