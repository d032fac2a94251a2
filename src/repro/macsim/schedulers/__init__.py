"""Message schedulers for the abstract MAC layer model.

The scheduler is the adversary: all timing non-determinism in the model
flows through it. See :mod:`repro.macsim.schedulers.base` for the
contract, and the paper's Section 2 for the model definition.
"""

from .base import DeliveryPlan, Scheduler, UniformPlan
from .synchronous import SynchronousScheduler
from .random_delay import JitteredRoundScheduler, RandomDelayScheduler
from .adversarial import (MaxDelayScheduler, PartitionScheduler,
                          SilencingScheduler, StaggeredScheduler)
from .scripted import ScriptedScheduler, ScriptedStep
from .unreliable import (AdversarialUnreliableScheduler,
                         BernoulliUnreliableScheduler)
from .fprog import EagerDeliveryScheduler

__all__ = [
    "BernoulliUnreliableScheduler",
    "AdversarialUnreliableScheduler",
    "EagerDeliveryScheduler",
    "DeliveryPlan",
    "UniformPlan",
    "Scheduler",
    "SynchronousScheduler",
    "RandomDelayScheduler",
    "JitteredRoundScheduler",
    "MaxDelayScheduler",
    "SilencingScheduler",
    "StaggeredScheduler",
    "PartitionScheduler",
    "ScriptedScheduler",
    "ScriptedStep",
]
