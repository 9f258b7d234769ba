"""Record tests/golden.json, the outputs test_golden.py compares with.

    PYTHONPATH=src python tests/record_golden.py

Run on the commit whose outputs are the reference.  Prints "section: key"
for each output whose value differs from the file it replaces (a new or
removed one included).
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_golden import GOLDEN, SECTIONS, machine, section_outputs  # noqa: E402


def moved(old, new):
    """(section, key) of every output whose value differs between the two."""
    for section in sorted(old.keys() | new.keys()):
        was, now = old.get(section, {}), new.get(section, {})
        for key in sorted(was.keys() | now.keys()):
            if was.get(key) != now.get(key):
                yield section, key


def main():
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {section: section_outputs(section, tmp) for section in SECTIONS}
    old = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as f:
            old = json.load(f)["outputs"]
    for section, key in moved(old, outputs):
        print(f"{section}: {key}")
    with open(GOLDEN, "w") as f:
        json.dump({"machine": machine(), "outputs": outputs}, f, indent=1,
                  sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
