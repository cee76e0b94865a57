"""Repository benchmark: five traffic workloads, end-to-end and per-layer metrics.

Run ``python -m bench --help`` from the repository root; ``bench/README.md``
documents the workloads, the metrics and the measurement protocol.

The benchmark drives the library from the source tree next to it, so the
package puts ``<root>/src`` first on ``sys.path``: a checkout that holds no
``src/repro`` must fail instead of silently measuring an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

if (SOURCE / "repro").is_dir() and str(SOURCE) not in sys.path:
    sys.path.insert(0, str(SOURCE))
