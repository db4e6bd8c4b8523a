#!/usr/bin/env python3
"""Validate a dlosn-tournament/1 leaderboard document.

Usage: check_tournament.py LEADERBOARD_JSON [EXPECTED_MODEL ...]

Checks the schema produced by `dlosn tournament --json`:

- top-level shape: schema tag, seed/jobs ints, fit_times/stories
  arrays, a non-empty leaderboard;
- one entry per requested model, each carrying every documented field
  with the documented type (null allowed exactly where docs/MODELS.md
  says: error, mean_rel_err, per_story cells);
- ranking invariant: successful entries come first, sorted ascending
  by mean_rel_err, with null-accuracy and failed entries after;
- per_story length equals the story count;
- when EXPECTED_MODEL args are given, each must appear in the
  leaderboard and must have fitted at least one story (ok=true).
"""
import json
import math
import sys

SCHEMA = "dlosn-tournament/1"


def fail(msg):
    print(f"check_tournament: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def main():
    path = sys.argv[1]
    expected = sys.argv[2:]
    with open(path) as f:
        doc = json.load(f)

    if doc.get("schema") != SCHEMA:
        fail(f"{path}: unexpected schema {doc.get('schema')!r}")

    for key, typ in (("seed", int), ("jobs", int)):
        if not isinstance(doc.get(key), typ) or isinstance(doc.get(key), bool):
            fail(f"{key!r} is not an {typ.__name__}")
    stories = doc.get("stories")
    if not isinstance(stories, list) or not all(
        isinstance(s, str) for s in stories
    ):
        fail("'stories' is not a list of labels")
    fit_times = doc.get("fit_times")
    if not isinstance(fit_times, list) or not all(is_num(t) for t in fit_times):
        fail("'fit_times' is not a list of hours")

    entries = doc.get("leaderboard")
    if not isinstance(entries, list) or not entries:
        fail("'leaderboard' missing or empty")

    seen = []
    for e in entries:
        model = e.get("model")
        if not isinstance(model, str) or not model:
            fail(f"entry without a model name: {e!r}")
        if model in seen:
            fail(f"duplicate leaderboard entry for {model!r}")
        seen.append(model)
        if not isinstance(e.get("ok"), bool):
            fail(f"{model}: 'ok' is not a bool")
        if not (e.get("error") is None or isinstance(e.get("error"), str)):
            fail(f"{model}: 'error' is neither null nor a string")
        for key in ("mean_rel_err", "training_error"):
            v = e.get(key)
            if not (v is None or is_num(v)):
                fail(f"{model}: {key!r} is neither null nor a number")
        per_story = e.get("per_story")
        if not isinstance(per_story, list) or len(per_story) != len(stories):
            fail(
                f"{model}: 'per_story' has {per_story and len(per_story)} "
                f"cells for {len(stories)} stories"
            )
        if not all(v is None or is_num(v) for v in per_story):
            fail(f"{model}: 'per_story' cell is neither null nor a number")
        for key in ("fit_ms", "predict_ms"):
            if not is_num(e.get(key)):
                fail(f"{model}: {key!r} is not a number")
        if not isinstance(e.get("evaluations"), int):
            fail(f"{model}: 'evaluations' is not an int")

    # ranking: ok-with-accuracy ascending, then ok-without, then failed
    def rank(e):
        if not e["ok"]:
            return 2
        return 0 if e["mean_rel_err"] is not None else 1

    ranks = [rank(e) for e in entries]
    if ranks != sorted(ranks):
        fail(f"leaderboard rank classes out of order: {ranks}")
    errs = [e["mean_rel_err"] for e in entries if rank(e) == 0]
    if errs != sorted(errs) or any(math.isnan(v) for v in errs):
        fail(f"successful entries not sorted by mean_rel_err: {errs}")

    for model in expected:
        entry = next((e for e in entries if e["model"] == model), None)
        if entry is None:
            fail(f"expected model {model!r} missing from the leaderboard")
        if not entry["ok"]:
            fail(f"expected model {model!r} failed: {entry.get('error')!r}")

    print(
        f"check_tournament: OK — {len(entries)} models over "
        f"{len(stories)} stories; "
        + ", ".join(
            f"{e['model']}={e['mean_rel_err']}"
            for e in entries
            if e["mean_rel_err"] is not None
        )
    )


if __name__ == "__main__":
    main()
