"""Make the test-only oracles in ``tests/property`` importable everywhere.

The oracles (``coherence_oracle``, ``dvfs_oracle``, ``graph_oracle``,
``graph_stats``, ``perfmodel_oracle``) check product code from tests in
several directories.  The smoke tests in ``tests/smoke`` drive the CLI
and perfbench in subprocesses, as CI's smoke scenarios do; they are
collected only with ``REPRO_SMOKE=1``.
"""

import os
import sys
from pathlib import Path

_ORACLES = str(Path(__file__).parent / "property")
if _ORACLES not in sys.path:
    sys.path.insert(0, _ORACLES)

collect_ignore = [] if os.environ.get("REPRO_SMOKE") == "1" else ["smoke"]
