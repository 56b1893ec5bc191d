"""Make the test-only oracles in ``tests/property`` importable everywhere.

The oracles (``coherence_oracle``, ``dvfs_oracle``, ``graph_oracle``,
``graph_stats``) check product code from tests in several directories.
"""

import sys
from pathlib import Path

_ORACLES = str(Path(__file__).parent / "property")
if _ORACLES not in sys.path:
    sys.path.insert(0, _ORACLES)
