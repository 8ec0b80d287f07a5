"""The random source type the package passes around: an explicit numpy Generator.

Sampling always goes through a Generator passed in by the caller; there is
no hidden global RNG. The alias has a module of its own only because the
benchmark's span recorder (``perfbench/spans.py``) imports every module in
its ``LAYERS`` list by name, ``statevector`` among them, and the benchmark
changes separately from the package. It goes once the benchmark drops it
from ``LAYERS`` (ROADMAP items 6 and 20); the simulator it used to hold is
the test reference ``tests/circuit_reference.py``.
"""

from __future__ import annotations

import numpy as np

RandomSource = np.random.Generator
