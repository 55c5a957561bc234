"""Compare two sets of benchmark results, metric by metric and layer by layer.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are results files written by run.py, or directories of them.
Files are paired by workload and trace mode. For every end-to-end and
per-layer metric the table gives both medians, the change as a share of the
old median, and each side's spread (interquartile range over median); the
traced results add each layer's share of the summed self time.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: Path) -> dict:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = {}
    for f in files:
        r = json.loads(f.read_text(encoding="utf-8"))
        results[(r["workload"], r["trace"])] = r
    return results


def spread(stat: dict) -> str:
    if "q1" not in stat or not stat["median"]:
        return "-"
    return f"{(stat['q3'] - stat['q1']) / abs(stat['median']):.1%}"


def change(old: float, new: float) -> str:
    if old == new:
        return "0"
    return f"{(new - old) / abs(old):+.1%}" if old else "new"


def table(title: str, rows: list) -> str:
    header = ("metric", "old", "new", "change", "old spread", "new spread")
    rows = [header] + rows
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(header))]
    lines = [title] + ["  ".join(str(c).rjust(w) if i else str(c).ljust(w)
                                 for i, (c, w) in enumerate(zip(r, widths))) for r in rows]
    return "\n".join(lines)


def compare(old: dict, new: dict) -> str:
    out = []
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        workload, trace = key
        head = f"{workload} (trace {trace}): failed {a['failed']}/{a['attempted']} -> {b['failed']}/{b['attempted']}"
        head += f", digests match reference: {a['digests_match']} -> {b['digests_match']}"
        out.append(head)
        for section in ("end_to_end", "per_layer"):
            sa, sb = a["stats"].get(section, {}), b["stats"].get(section, {})
            rows = [
                (m, f"{sa[m]['median']:.6g}", f"{sb[m]['median']:.6g}",
                 change(sa[m]["median"], sb[m]["median"]), spread(sa[m]), spread(sb[m]))
                for m in sa if m in sb
            ]
            if rows:
                out.append(table(f"  {section}", rows))
        sha, shb = a.get("self_time_shares", {}), b.get("self_time_shares", {})
        if sha or shb:
            rows = [(layer, f"{sha.get(layer, 0):.1%}", f"{shb.get(layer, 0):.1%}", "", "", "")
                    for layer in sorted(set(sha) | set(shb))]
            out.append(table("  self-time share", rows))
        out.append("")
    for key in sorted(set(old) ^ set(new)):
        out.append(f"{key[0]} (trace {key[1]}): only in {'old' if key in old else 'new'}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    print(compare(load(args.old), load(args.new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
