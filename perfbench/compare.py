#!/usr/bin/env python3
"""Put two saved benchmark records side by side.

    python3 perfbench/compare.py .bench_results/A.json .bench_results/B.json

Records are the files perfbench/run.py saves.  When the two come from
different hosts (node, nproc, recommended domain count, OCaml version or
flambda differ), wall-clock metrics are marked "not comparable": only
counts and fractions carry across machines.
"""

import json
import sys

WALL_UNITS = {"s", "ms", "us", "ns", "1/s"}
HOST_KEYS = ("node", "nproc", "recommended_domain_count", "ocaml", "flambda")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = (json.load(open(p)) for p in sys.argv[1:])
    same_host = all(a["host"].get(k) == b["host"].get(k) for k in HOST_KEYS)
    for r in (a, b):
        print("%-8s seed %-6d trace %d  %s" % (
            r["workload"], r["seed"], r["trace"],
            " ".join("%s=%s" % (k, r["host"].get(k)) for k in HOST_KEYS)))
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        print("different workload or mode: figures are not the same quantity")
    if not same_host:
        print("different hosts: wall-clock figures are not comparable")
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in ma:
        if name not in mb:
            continue
        va, vb, unit = ma[name]["value"], mb[name]["value"], ma[name]["unit"]
        ratio = "%+.1f%%" % ((vb / va - 1) * 100) if va else "-"
        tag = "not comparable" if unit in WALL_UNITS and not same_host else ""
        print("  %-34s %14.6g %14.6g %-8s %8s %s" % (name, va, vb, unit, ratio, tag))


if __name__ == "__main__":
    main()
