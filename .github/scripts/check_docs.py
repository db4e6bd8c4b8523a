#!/usr/bin/env python3
"""Docs consistency check.

Usage: check_docs.py REPO_ROOT [MODEL_LIST_FILE]

- every `docs/*.md` path mentioned in README.md must exist on disk
  (a reference to a renamed or deleted doc is a broken promise);
- README.md must link docs/MODELS.md (the model-zoo handbook);
- every registered model must appear in docs/MODELS.md.  The registry
  is read from MODEL_LIST_FILE — the output of
  `dlosn tournament --list`, one `name description` line per model —
  so the check can never drift from the code's own registry;
- every metric name registered in lib/, bin/ or bench/ (a string
  literal passed to Obs.Metrics.counter, gauge or histogram) must
  appear in some docs/*.md, and every name in the metric catalogue of
  docs/OBSERVABILITY.md must be registered.  A catalogue cell may
  abbreviate names after the first: `a.b` / `c` names a.b and a.c.
"""
import glob
import os
import re
import sys

REGISTRATION = re.compile(
    r"Metrics\.(?:counter|gauge|histogram)\s+"
    r"(?:~\w+(?::(?:\([^()]*\)|[\w.]+))?\s+)*"
    r'"([^"]+)"'
)


def fail(msg):
    print(f"check_docs: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def registered_metrics(root):
    names = set()
    for top in ("lib", "bin", "bench"):
        for path in glob.glob(os.path.join(root, top, "**", "*.ml"), recursive=True):
            with open(path) as f:
                names.update(REGISTRATION.findall(f.read()))
    return names


def catalogue_metrics(doc):
    """Names in the first column of the table under '### Metric
    catalogue', with `a.b` / `c` shorthand expanded to a.b and a.c."""
    names = set()
    lines = doc.split("### Metric catalogue", 1)[1].splitlines()
    in_table = False
    for line in lines:
        if not line.startswith("|"):
            if in_table:
                break
            continue
        in_table = True
        cells = line.split("|")
        prefix = None
        for name in re.findall(r"`([^`]+)`", cells[1]):
            if "." in name:
                prefix = name.rsplit(".", 1)[0]
            elif prefix is not None:
                name = f"{prefix}.{name}"
            names.add(name)
    if not names:
        fail("docs/OBSERVABILITY.md has no metric catalogue rows")
    return names


def check_metrics(root):
    docs = ""
    for path in sorted(glob.glob(os.path.join(root, "docs", "*.md"))):
        with open(path) as f:
            docs += f.read()
    with open(os.path.join(root, "docs", "OBSERVABILITY.md")) as f:
        catalogue = catalogue_metrics(f.read())
    registered = registered_metrics(root)
    if not registered:
        fail("found no metric registrations in lib/, bin/ or bench/")

    def mentioned(name):
        pattern = r"(?<![\w.])" + re.escape(name) + r"(?!\w|\.\w)"
        return name in catalogue or re.search(pattern, docs) is not None

    undocumented = sorted(n for n in registered if not mentioned(n))
    if undocumented:
        fail(
            "metric(s) registered in code but in no docs/*.md: "
            + ", ".join(undocumented)
        )
    stale = sorted(catalogue - registered)
    if stale:
        fail(
            "docs/OBSERVABILITY.md catalogues metric(s) nothing registers: "
            + ", ".join(stale)
        )
    print(
        f"check_docs: all {len(registered)} registered metrics documented, "
        f"all {len(catalogue)} catalogue names registered"
    )


def main():
    root = sys.argv[1]
    readme_path = os.path.join(root, "README.md")
    with open(readme_path) as f:
        readme = f.read()

    refs = sorted(set(re.findall(r"docs/[A-Za-z0-9_.-]+\.md", readme)))
    if not refs:
        fail("README.md references no docs/*.md at all")
    for ref in refs:
        if not os.path.isfile(os.path.join(root, ref)):
            fail(f"README.md references {ref}, which does not exist")
    if "docs/MODELS.md" not in refs:
        fail("README.md does not link docs/MODELS.md")
    print(f"check_docs: README references {len(refs)} docs, all present")

    models_path = os.path.join(root, "docs", "MODELS.md")
    with open(models_path) as f:
        models_doc = f.read()

    if len(sys.argv) > 2:
        with open(sys.argv[2]) as f:
            models = [
                line.split()[0] for line in f if line.strip()
            ]
        if not models:
            fail(f"{sys.argv[2]} lists no models")
        missing = [
            m for m in models if f"`{m}`" not in models_doc
        ]
        if missing:
            fail(
                f"docs/MODELS.md does not document registered "
                f"model(s): {', '.join(missing)}"
            )
        print(
            f"check_docs: all {len(models)} registered models documented "
            f"in docs/MODELS.md"
        )
    check_metrics(root)
    print("check_docs: OK")


if __name__ == "__main__":
    main()
