#!/usr/bin/env python3
"""Gate the live-ingestion smoke.

Usage: check_live.py SCRAPE_TXT

SCRAPE_TXT is a Prometheus exposition scraped from a server that just
ingested a `dlosn replay` stream.  Fails (exit 1) unless:

- dlosn_live_votes_ingested_total > 0: the /observe path actually
  accepted votes;
- dlosn_live_fits_total >= 1: the refit daemon produced at least one
  fit from the stream;
- dlosn_live_refits_total >= 1: at least one of those was a
  drift-triggered warm refit, i.e. the drift detector closed the loop
  (override the floor via LIVE_MIN_REFITS);
- dlosn_fit_warm_starts_total >= 1: the refit really warm-started from
  the previous generation instead of fitting cold.
"""
import os
import sys

MIN_REFITS = int(os.environ.get("LIVE_MIN_REFITS", "1"))


def fail(msg):
    print(f"check_live: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def metric(lines, name):
    for line in lines:
        parts = line.split()
        if len(parts) == 2 and parts[0] == name:
            try:
                return float(parts[1])
            except ValueError:
                fail(f"unparseable sample for {name}: {line!r}")
    fail(f"metric {name} not found in scrape")


def check_scrape(path):
    with open(path) as f:
        lines = f.read().splitlines()
    votes = metric(lines, "dlosn_live_votes_ingested_total")
    if votes <= 0:
        fail(f"dlosn_live_votes_ingested_total = {votes:.0f}, expected > 0")
    fits = metric(lines, "dlosn_live_fits_total")
    if fits < 1:
        fail(f"dlosn_live_fits_total = {fits:.0f}, expected >= 1")
    refits = metric(lines, "dlosn_live_refits_total")
    if refits < MIN_REFITS:
        fail(f"dlosn_live_refits_total = {refits:.0f}, expected >= {MIN_REFITS}")
    warm = metric(lines, "dlosn_fit_warm_starts_total")
    if warm < 1:
        fail(f"dlosn_fit_warm_starts_total = {warm:.0f}, expected >= 1")
    print(
        f"check_live: scrape OK: {votes:.0f} votes ingested, "
        f"{fits:.0f} daemon fits ({refits:.0f} drift-triggered, "
        f"{warm:.0f} warm starts)"
    )


def main():
    if len(sys.argv) != 2:
        fail("usage: check_live.py SCRAPE_TXT")
    check_scrape(sys.argv[1])
    print("check_live: OK")


if __name__ == "__main__":
    main()
