#!/usr/bin/env python3
"""Dark-time gate over a Chrome trace written by `run --trace-out`.

    build/run --experiment=all --quick --trace-out=all_trace.json
    python3 tools/trace_dark_time.py all_trace.json

Prints, per `session.scenario` span, its duration, the share of it that its
direct child spans cover (the union of their intervals, clipped to the
scenario) and the time they leave dark. Exits 1 when a scenario has under
90% coverage *and* over 20 ms dark: short scenarios may be mostly glue, but
a long one must say where its time went.
"""
import json
import sys

MIN_COVERAGE = 0.90
MAX_DARK_MS = 20.0


def covered_us(span, children):
    """Microseconds of `span` covered by the union of `children`."""
    lo, hi = span["ts"], span["ts"] + span["dur"]
    intervals = sorted((max(c["ts"], lo), min(c["ts"] + c["dur"], hi)) for c in children)
    covered, end = 0, lo
    for begin, finish in intervals:
        if finish > end:
            covered += finish - max(begin, end)
            end = finish
    return covered


def main(path):
    events = json.load(open(path))["traceEvents"]
    children = {}
    for event in events:
        children.setdefault(event["args"].get("parent"), []).append(event)
    failing = []
    for span in (e for e in events if e["name"] == "session.scenario"):
        covered = covered_us(span, children.get(span["args"]["id"], []))
        coverage = covered / span["dur"] if span["dur"] else 1.0
        dark_ms = (span["dur"] - covered) / 1000.0
        print(f"{span['args']['scenario']:28s} {span['dur'] / 1000.0:9.1f} ms  "
              f"coverage {coverage:5.3f}  dark {dark_ms:7.1f} ms")
        if coverage < MIN_COVERAGE and dark_ms > MAX_DARK_MS:
            failing.append(span["args"]["scenario"])
    if failing:
        print(f"FAIL: under {MIN_COVERAGE:.0%} child-span coverage and over "
              f"{MAX_DARK_MS:g} ms dark: {', '.join(failing)}")
        return 1
    print("ok: every scenario's time is attributed to child spans")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
