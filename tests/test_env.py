"""The environment surface: the package reads one variable, a
deployment path (the artifact store's root), and nothing that changes
what a recompile builds or whether it is observed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def test_only_the_store_root_is_read_from_the_environment():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert names == {"REPRO_STORE"}


def test_importing_repro_starts_no_observability(tmp_path):
    # Names the package once read at import; now only --obs-out,
    # --ledger, obs.enable() and obs.enable_ledger() start recording.
    ledger = tmp_path / "events.jsonl"
    env = {**os.environ, "REPRO_OBS": "1", "REPRO_LEDGER": str(ledger),
           "PYTHONPATH": str(SRC.parent)}
    probe = ("import repro.__main__\n"
             "from repro import obs\n"
             "assert not obs.enabled() and obs.ledger() is None\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not ledger.exists()
