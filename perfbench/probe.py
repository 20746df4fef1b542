"""Set-up probe: a fresh process that imports rauzykit and loads a workload's
input files, then prints ``ready <seconds spent importing>``.

    python3 perfbench/probe.py <src directory> <manifest.json>
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import rauzykit.cli  # noqa: E402,F401  every CLI command pays this import

imported = time.perf_counter()

import json  # noqa: E402

from rauzykit import load_substitution  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as handle:
    for path in json.load(handle)["files"]:
        load_substitution(path)
print("ready", repr(imported - start), flush=True)
