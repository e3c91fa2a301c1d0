"""The campaign service: one spec API, a fair-share multi-tenant daemon.

Two layers share this package:

* the **request layer** — :class:`CampaignSpec` and its versioned JSON
  codec, the single object every entrypoint (CLI flags, ``REPRO_*``
  environment, the wire API) resolves into;
* the **service layer** — scheduler, campaign stepper, daemon and
  client.

Every export loads lazily (PEP 562), so a spec never pays for — or
cycles through — the HTTP/scheduling machinery.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "SPEC_VERSION",
    "SUPPORTED_SPEC_VERSIONS",
    "CampaignSpec",
    "spec_from_dict",
    "spec_from_json",
    "spec_to_dict",
    "spec_to_json",
    "AdmissionPolicy",
    "OverloadPolicy",
    "TenantQuota",
    "FairShareScheduler",
    "Campaign",
    "CampaignExecution",
    "CampaignService",
    "CampaignDaemon",
    "ClientPolicy",
    "ServiceClient",
    "default_socket_path",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".spec": ("SPEC_VERSION", "SUPPORTED_SPEC_VERSIONS", "CampaignSpec",
              "spec_from_dict", "spec_from_json", "spec_to_dict",
              "spec_to_json"),
    ".scheduler": ("AdmissionPolicy", "OverloadPolicy", "TenantQuota",
                   "FairShareScheduler"),
    ".campaign": ("Campaign", "CampaignExecution"),
    ".service": ("CampaignService",),
    ".daemon": ("CampaignDaemon",),
    ".client": ("ClientPolicy", "ServiceClient", "default_socket_path"),
})
