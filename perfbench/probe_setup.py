"""One cold start of the CLI: import it, then load a config.

Run as ``python3 probe_setup.py SRC_DIR [CONFIG.ini]`` in a fresh process;
prints one JSON object with the two durations and the imported file.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import geomgates.cli  # noqa: E402

t1 = time.perf_counter()
geomgates.config.load_config(sys.argv[2] if len(sys.argv) > 2 else None)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1, "module": geomgates.__file__}))
