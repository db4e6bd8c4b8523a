#!/usr/bin/env python3
"""Gate the fused panel solver against the committed baseline.

Usage: check_bench.py CURRENT_JSON BASELINE_JSON

Reads the "solver" section of two bench files (either the full
dlosn-bench/1 harness output or the standalone dlosn-bench-solver/1
document the DLOSN_BENCH_SOLVER_ONLY mode writes) and fails (exit 1)
when the fresh run regresses against bench/baseline.json.

Panel checks (fused multi-story panel vs a per-story loop of the
scalar stepper Pde.solve, both measured in the same run):

- every panel entry must report identical=true — the fused solver is
  only allowed to exist while each story's output is bit-identical to
  its scalar solve;
- speedup (scalar time / panel time per story-step) must stay >= 2
  for the committed >= 8-story panels ("min_speedup" in the baseline
  entry overrides the floor);
- allocation regression: panel_minor_words_per_story may not exceed
  the baseline by more than 20%.
"""
import json
import sys

TOLERANCE = 1.20
MIN_PANEL_SPEEDUP = 2.0

SCHEMAS = ("dlosn-bench/1", "dlosn-bench-solver/1")


def fail(msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def panel_of(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") not in SCHEMAS:
        fail(f"{path}: unexpected schema {doc.get('schema')!r}")
    solver = doc.get("solver")
    if not solver or not solver.get("panel"):
        fail(f"{path}: no solver panel section")
    return {p["name"]: p for p in solver["panel"]}


def check_panel(current, baseline):
    checked = 0
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            fail(f"panel {name!r} present in baseline but missing from run")

        if cur.get("identical") is not True:
            fail(
                f"panel {name}: fused solve is not bit-identical to the "
                f"per-story scalar path"
            )

        if cur["stories"] < base["stories"]:
            fail(
                f"panel {name}: run used {cur['stories']} stories, "
                f"baseline gates {base['stories']}"
            )

        speedup = cur["speedup"]
        min_speedup = base.get("min_speedup", MIN_PANEL_SPEEDUP)
        if speedup < min_speedup:
            fail(
                f"panel {name}: speedup {speedup:.2f}x vs the scalar loop "
                f"below the required {min_speedup}x"
            )

        words = cur["panel_minor_words_per_story"]
        base_words = base["panel_minor_words_per_story"]
        if words > base_words * TOLERANCE:
            fail(
                f"panel {name}: allocation regression — "
                f"{words:.0f} minor words/story vs baseline {base_words:.0f} "
                f"(>{TOLERANCE:.0%})"
            )
        checked += 1
        print(
            f"check_bench: panel {name}: identical, {cur['stories']} stories, "
            f"{speedup:.2f}x vs scalar loop (floor {min_speedup}x), "
            f"{words:.0f} words/story (baseline {base_words:.0f})"
        )
    return checked


def main():
    current = panel_of(sys.argv[1])
    baseline = panel_of(sys.argv[2])
    checked = check_panel(current, baseline)
    if checked == 0:
        fail("baseline contained no panel entries")
    print(f"check_bench: OK — {checked} panels within tolerance")


if __name__ == "__main__":
    main()
