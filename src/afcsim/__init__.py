"""Simulation toolkit for networked nonlinear control.

Modules cover dense LTI analysis with H-infinity certificates (lti), the
cart-pole plant and RK4 integration (plant), delay/loss network channels
(netchan), grid fuzzy approximators (fuzzy), the indirect adaptive fuzzy
controller with H-infinity auxiliary term (afhc) and the experiment harness
(config, harness). ``import afcsim`` binds these modules; it leaves out cli.
"""
from . import afhc, config, fuzzy, harness, lti, netchan, plant

__version__ = "0.1.0"
