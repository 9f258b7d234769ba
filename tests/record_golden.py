"""Record tests/golden.json, the outputs test_golden.py compares with.

    PYTHONPATH=src python tests/record_golden.py

Run on the commit whose outputs are the reference.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_golden import GOLDEN, SECTIONS, machine, section_outputs  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {section: section_outputs(section, tmp) for section in SECTIONS}
    with open(GOLDEN, "w") as f:
        json.dump({"machine": machine(), "outputs": outputs}, f, indent=1,
                  sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
