"""What every CLI call pays before any numerics: a fresh interpreter
imports rkdg_lab, then loads and validates each config it is given.

Usage: python3 setup_probe.py SRC_DIR SEED CONFIG...
Prints the number of configs validated.
"""

import os
import sys

src_dir, seed, paths = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
sys.path.insert(0, src_dir)

from rkdg_lab import harness  # noqa: E402

if not os.path.abspath(harness.__file__).startswith(os.path.abspath(src_dir) + os.sep):
    sys.exit(f"imported rkdg_lab from {harness.__file__}, not from {src_dir}")
for path in paths:
    doc = harness.load_config(path)
    doc["seed"] = seed
    harness.validate_config(doc)
print(len(paths))
