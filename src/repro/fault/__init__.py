"""Fault injection & link-level resilience campaigns.

The plans and injectors here serve every layer; the campaigns here
drive one :class:`~repro.core.encoder.CableLinkPair` (wire faults,
endpoint crashes). The served kill campaigns drive the link service,
so they live above it, in the serve package's ``campaign`` module;
nothing here imports the serving stack.

Layering note: :mod:`repro.core.config` embeds :class:`FaultPlan` /
:class:`RecoveryPolicy`, so importing this package must stay cheap and
cycle-free — only the pure-stdlib :mod:`repro.fault.plan` is loaded
eagerly. The injectors and the campaign runner (which reach back into
:mod:`repro.core`) resolve lazily on first attribute access.
"""

from repro.fault.plan import FaultPlan, RecoveryPolicy

__all__ = [
    "CampaignReport",
    "ChannelFaultInjector",
    "CrashCampaignReport",
    "CrashFaultInjector",
    "FailoverInjector",
    "FaultPlan",
    "RecoveryPolicy",
    "StateFaultInjector",
    "WireFaultInjector",
    "WorkerFaultInjector",
    "run_campaign",
    "run_crash_campaign",
]

_LAZY = {
    "WireFaultInjector": "repro.fault.injectors",
    "ChannelFaultInjector": "repro.fault.injectors",
    "StateFaultInjector": "repro.fault.injectors",
    "CrashFaultInjector": "repro.fault.injectors",
    "FailoverInjector": "repro.fault.injectors",
    "WorkerFaultInjector": "repro.fault.injectors",
    "CampaignReport": "repro.fault.campaign",
    "run_campaign": "repro.fault.campaign",
    "CrashCampaignReport": "repro.fault.campaign",
    "run_crash_campaign": "repro.fault.campaign",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
