"""Network substrate: discrete-event simulation of partial synchrony.

The paper's system model (§2.1): the network and replicas may behave
asynchronously until an unknown global stabilization time (GST), after which
communication is synchronous with unknown bounds.  An adversarial scheduler
may manipulate delivery times, but *independently of the sender's identity
and of whether the sender is faulty*.

* :mod:`repro.net.simulator` — deterministic discrete-event kernel: one
  heap of timers and fan-outs, a fan-out being one entry, a cursor over
  its deliveries in ``(time, seq)`` order.
* :mod:`repro.net.latency` — latency models (constant/uniform/exponential).
* :mod:`repro.net.faults` — pre-GST chaos policies (delay/reorder) and
  partitions; correct-to-correct messages are never lost, only delayed.
* :mod:`repro.net.network` — the network itself: routing, GST enforcement,
  per-type message accounting (read by `repro figures`' Figure-1b tables), and the
  one seam to a consensus instance: given the instance's kernel
  (``Network.use_kernel``), fan-outs are coalesced into one event per
  distinct delivery time, queued as one entry, and the kernel sees every
  send and every bucket.
* :mod:`repro.net.transport` — the per-replica send/broadcast/multicast API.
"""

from .simulator import Simulator
from .latency import (
    LatencyModel,
    ConstantLatency,
    UniformLatency,
    ExponentialLatency,
)
from .faults import ChaosPolicy, NoChaos, PreGstChaos, Partition
from .network import Network, MessageStats
from .transport import Transport

__all__ = [
    "Simulator",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "ExponentialLatency",
    "ChaosPolicy",
    "NoChaos",
    "PreGstChaos",
    "Partition",
    "Network",
    "MessageStats",
    "Transport",
]
