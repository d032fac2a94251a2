"""Message schedulers for the abstract MAC layer model.

The scheduler is the adversary: all timing non-determinism in the model
flows through it. See :mod:`repro.macsim.schedulers.base` for the
contract, and the paper's Section 2 for the model definition.
"""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": "DeliveryPlan UniformPlan Scheduler",
    "synchronous": "SynchronousScheduler",
    "random_delay": "RandomDelayScheduler JitteredRoundScheduler",
    "adversarial": "MaxDelayScheduler SilencingScheduler StaggeredScheduler "
                   "PartitionScheduler",
    "scripted": "ScriptedScheduler ScriptedStep",
    "unreliable": "BernoulliUnreliableScheduler "
                  "AdversarialUnreliableScheduler",
    "fprog": "EagerDeliveryScheduler",
})
