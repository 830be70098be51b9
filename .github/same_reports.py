"""Exit 1 unless each pair of JSON reports is equal once every `measured`
key is dropped: the one rule for comparing two runs of the same inputs
(see EXPERIMENTS.md, "JSON bench reports").

    python3 .github/same_reports.py A.json B.json [A2.json B2.json ...]
"""
import json
import sys


def strip(x):
    if isinstance(x, dict):
        return {k: strip(v) for k, v in x.items() if k != "measured"}
    if isinstance(x, list):
        return [strip(v) for v in x]
    return x


args = sys.argv[1:]
if not args or len(args) % 2:
    sys.exit("usage: same_reports.py A.json B.json [A2.json B2.json ...]")
diverged = [f"{a} vs {b}" for a, b in zip(args[::2], args[1::2])
            if strip(json.load(open(a))) != strip(json.load(open(b)))]
if diverged:
    print("reports differ outside measured:", diverged)
    sys.exit(1)
print(f"{len(args) // 2} report pair(s) identical outside measured")
