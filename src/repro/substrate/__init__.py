"""Backend-selectable execution substrate.

One simulation kernel, two interchangeable backends:

* ``vectorized`` — columnar NumPy execution; an entire round's calls and
  replies are batched as arrays.  Scales to millions of nodes.
* ``engine`` — per-node message-level execution on the
  :class:`~repro.simulator.engine.SynchronousEngine`.  The fidelity
  reference.

Every protocol in :mod:`repro.core` and :mod:`repro.baselines` takes a
``backend`` argument (or, for the DRR-gossip pipelines, reads it from
:class:`~repro.core.drr_gossip.DRRGossipConfig`) and dispatches through
:func:`run_on`.  Topology-bound workloads — Local-DRR's neighbour broadcast
and batched Chord lookups — go through the topology kernel
(:mod:`repro.substrate.topology_kernel`) under the same contract.  See
:mod:`repro.substrate.kernel` for the contract between the backends and
``tests/test_substrate.py`` for the equivalence guarantees, which hold on
reliable *and* lossy networks (loss fates are identity-keyed through
:class:`~repro.simulator.failures.LossOracle`, never draw-order-dependent).
"""

from .delivery import (
    RelayTable,
    deliver_batch,
    fold_pushes,
    occurrence_index,
    probe_exchange,
    relay_to_roots,
    sample_uniform,
)
from .topology_kernel import (
    ChordLookupBatch,
    ChordLookupNode,
    neighbor_broadcast,
    run_chord_lookups,
)
from .kernel import (
    BACKENDS,
    DEFAULT_BACKEND,
    UNAVAILABLE_BACKENDS,
    EngineKernel,
    Kernel,
    VectorizedKernel,
    available_backends,
    get_kernel,
    normalize_backend,
    run_on,
)

__all__ = [
    "BACKENDS",
    "ChordLookupBatch",
    "ChordLookupNode",
    "DEFAULT_BACKEND",
    "EngineKernel",
    "Kernel",
    "RelayTable",
    "UNAVAILABLE_BACKENDS",
    "VectorizedKernel",
    "available_backends",
    "deliver_batch",
    "fold_pushes",
    "get_kernel",
    "neighbor_broadcast",
    "occurrence_index",
    "probe_exchange",
    "normalize_backend",
    "relay_to_roots",
    "run_chord_lookups",
    "run_on",
    "sample_uniform",
]
