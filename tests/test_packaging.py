"""The packaging promise: ``repro`` runs on the standard library alone.

``pyproject.toml`` declares ``dependencies = []`` and the README says
"dependency-free", with numpy the one optional extra. A developer
machine hides a broken promise — it tends to have networkx, scipy,
hypothesis and pytest installed — so this test blocks those in a fresh
interpreter, imports every module of the package, runs ``approxiot
info``, and then reads ``sys.modules``: nothing may have been loaded
beyond the stdlib, ``repro`` itself and (where installed) ``numpy``.
Runs on both CI legs and never skips.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.fastpath import numpy_available

BLOCKED = ("networkx", "scipy", "hypothesis", "pytest")

PROBE = """
import sys
for name in {blocked!r}:
    sys.modules[name] = None
at_startup = set(sys.modules)  # whatever site / .pth files pulled in

import importlib, json, pkgutil
import repro
from repro.cli import main

modules = ["repro"]
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
    modules.append(info.name)
status = main(["info"])
loaded = {{
    name.partition(".")[0]
    for name, module in sys.modules.items()
    if module is not None and name not in at_startup
}}
# multiprocessing aliases the running script as __mp_main__.
foreign = sorted(
    loaded - set(sys.stdlib_module_names) - {{"repro", "__mp_main__"}}
)
print(json.dumps({{"status": status, "modules": modules, "foreign": foreign}}))
"""


def test_every_module_imports_on_the_declared_dependencies_alone():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(blocked=BLOCKED)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["status"] == 0
    assert "ApproxIoT reproduction" in done.stdout  # `info`'s banner
    # The walk really covered the package, engine and simulator included.
    assert {"repro.engine.sharding", "repro.simnet.network",
            "repro.system.deployment", "repro.cli"} <= set(report["modules"])
    allowed = ["numpy"] if numpy_available() else []
    assert report["foreign"] == allowed
