"""Platform core: the SWAMP composition layer.

Everything below this package is a substrate; here they are assembled into
the platform the paper describes — "the same underlying SWAMP platform can
be customized to different pilots" across "a range of deployment
configurations" (cloud, fog, mobile fog):

* :mod:`~repro.core.deployment` — deployment kinds and topology builders;
* :mod:`~repro.core.security_profile` — switchable security wiring
  (OAuth/PEP on the broker, per-device encrypted channels, the detection
  engine with quarantine);
* :mod:`~repro.core.pilot` — :class:`PilotConfig`/:class:`PilotRunner`:
  one configured farm running a full season end-to-end;
* :mod:`~repro.core.stages` — the assembly steps that build each
  architectural layer, and ``assemble``, which runs them in order;
* :mod:`~repro.core.pilots` — factories for the four pilots (CBEC,
  Intercrop, Guaspari, MATOPIBA).
"""

from repro.core.deployment import DeploymentKind
from repro.core.pilot import PilotConfig, PilotReport, PilotRunner
from repro.core.pilots import (
    build_cbec_pilot,
    build_guaspari_pilot,
    build_intercrop_pilot,
    build_matopiba_pilot,
)
from repro.core.security_profile import SecurityConfig

__all__ = [
    "DeploymentKind",
    "PilotConfig",
    "PilotReport",
    "PilotRunner",
    "SecurityConfig",
    "build_cbec_pilot",
    "build_guaspari_pilot",
    "build_intercrop_pilot",
    "build_matopiba_pilot",
]
