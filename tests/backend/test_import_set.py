"""``import repro.backend`` loads a fixed set of ``repro`` modules.

Every workload's ``setup_s`` includes this import, so a module that
starts loading here (say, a shared-type table importing telemetry
eagerly, or the snapshot code importing pickle) costs every run that
never uses it.  A new module on this path must be added to the list on
purpose.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

EXPECTED = {
    "repro",
    "repro.backend",
    "repro.core",
    "repro.core.agent_router",
    "repro.core.cache_agent",
    "repro.core.discovery",
    "repro.core.encapsulation",
    "repro.core.foreign_agent",
    "repro.core.header",
    "repro.core.home_agent",
    "repro.core.icmp_handling",
    "repro.core.mobile_host",
    "repro.core.persistence",
    "repro.core.registration",
    "repro.core.replication",
    "repro.errors",
    "repro.ip",
    "repro.ip.address",
    "repro.ip.arp",
    "repro.ip.checksum",
    "repro.ip.dataplane",
    "repro.ip.host",
    "repro.ip.icmp",
    "repro.ip.node",
    "repro.ip.options",
    "repro.ip.packet",
    "repro.ip.protocols",
    "repro.ip.router",
    "repro.ip.routing",
    "repro.link",
    "repro.link.frame",
    "repro.link.interface",
    "repro.link.medium",
    "repro.netsim",
    "repro.netsim.clock",
    "repro.netsim.events",
    "repro.netsim.simulator",
    "repro.netsim.trace",
    "repro.plan",
    "repro.scenario",
    "repro.scenario.session",
    "repro.scenario.spec",
    "repro.scenario.world",
    "repro.wire",
    "repro.wire.codec",
    "repro.wire.logic",
    "repro.wire.roles",
    "repro.workloads",
    "repro.workloads.loops",
    "repro.workloads.mobility",
    "repro.workloads.topology",
    "repro.workloads.traffic",
}

PROGRAM = """
import sys
import repro.backend
print("\\n".join(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
print("pickle" in sys.modules)
"""


def test_backend_import_loads_exactly_the_expected_modules():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *modules, pickle_loaded = done.stdout.split()
    # Only a scenario snapshot needs pickle; it imports it on first use.
    assert pickle_loaded == "False"
    loaded = set(modules)
    assert loaded - EXPECTED == set(), "new modules on the import path"
    assert EXPECTED - loaded == set(), "modules left the import path"
