"""The common agent deployments on simulator nodes.

:func:`make_agent_router` is
:func:`repro.wire.roles.compose_agent_roles` (the one place the Section 2
role combination and its attach order are written) bound to the
simulator's role adapters.
"""

from __future__ import annotations

from repro.core.cache_agent import CacheAgent
from repro.core.foreign_agent import ForeignAgent
from repro.core.home_agent import HomeAgent
from repro.core.icmp_handling import TunnelErrorHandler
from repro.ip.node import IPNode
from repro.wire.roles import AgentRouter, RoleClasses, compose_agent_roles

__all__ = ["AgentRouter", "SIM_ROLES", "make_agent_router"]

#: The simulator-bound role constructors.
SIM_ROLES = RoleClasses(
    foreign_agent=ForeignAgent.attach,
    home_agent=HomeAgent.attach,
    cache_agent=CacheAgent,
    tunnel_errors=TunnelErrorHandler.attach,
)


def make_agent_router(node: IPNode, **kwargs) -> AgentRouter:
    """Attach agent roles to a simulator node; the keyword arguments are
    :func:`~repro.wire.roles.compose_agent_roles`'s (``home_iface``,
    ``foreign_iface``, ``cache``, ``store``, ...)."""
    return compose_agent_roles(SIM_ROLES, node, **kwargs)
