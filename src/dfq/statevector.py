"""An empty module, kept only for the benchmark.

The package passes numpy Generators directly and holds nothing here. The
module exists solely because the benchmark's span recorder
(``perfbench/spans.py``) imports every module in its ``LAYERS`` list by
name, ``statevector`` among them, and the benchmark changes separately from
the package. Delete it once the benchmark drops it from ``LAYERS`` (ROADMAP
items 6 and 20). The simulator it once held is the test reference
``tests/circuit_reference.py``.
"""
