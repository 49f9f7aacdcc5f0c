"""Print numpy's version, its runtime (the SIMD paths it found on this CPU)
and the build line of its bundled OpenBLAS, which names the core it picked.

Pinned digests depend on all three. Run it as `python .github/numpy_runtime.py`.
"""

import ctypes
import glob
import os

import numpy

print(numpy.__version__)
numpy.show_runtime()
config = "unknown"
for path in glob.glob(os.path.join(os.path.dirname(numpy.__path__[0]), "numpy.libs", "*openblas*")):
    # numpy 2 bundles scipy-openblas, numpy 1.x its own openblas64_
    for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_"):
        try:
            get = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_char_p
        config = get().decode()
print("OpenBLAS:", config)
