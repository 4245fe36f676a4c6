"""Host-speed probe.

The benchmark shares its cores with other tenants, and the speed at which
this host executes Python drifts by up to ±25% over minutes. The drift moves
every timing of a run together, so one run cannot be compared with another.
The probe is a fixed kernel that does not depend on drainsched. It times the
kinds of work that a job does: float loops over short lists (the solver),
deque and dict traffic (the packet phase), numpy calls on 15-element arrays
(finalize), seeded Rayleigh draws (the channel, instance generation), and
small dense solves and masked matrix products (the oracle). A run probes
before every job and once at the end, and scales each job's times by
``PROBE_REF_S`` over the mean of the two probes around the job. That
expresses each time at the host speed where one probe takes ``PROBE_REF_S``
seconds.
"""

from __future__ import annotations

import itertools
import time
from collections import deque

import numpy as np

PROBE_REF_S = 0.065  # a typical probe time on the 2-core host of the baseline
_MEMBERS = ([0, 3, 5], [1, 2, 7, 9], [4, 6, 8], [10, 11, 12, 13, 14])


def probe_s() -> float:
    t0 = time.perf_counter()
    s = [1.0] * 15
    for _ in range(1250):
        for m in _MEMBERS:
            total = 0.0
            for q in m:
                total += s[q]
            if total > 1.0:
                d = (total - 1.0) / len(m)
                for q in m:
                    s[q] -= d
            s[m[0]] += 0.01
    hist: dict[int, int] = {}
    queue: deque[int] = deque()
    for i in range(50_000):
        queue.append(i)
        if i & 1:
            d = i - queue.popleft()
            hist[d] = hist.get(d, 0) + 1
    a = np.ones(15)
    idx = [1, 2, 3]
    for _ in range(1250):
        np.clip(a, 0.0, None, out=a)
        a[idx] /= float(a[idx].sum()) + 1.0
    m = np.eye(4) * 4.0 + 0.25
    b = np.ones(4)
    for period in range(600):
        np.linalg.det(m)
        np.linalg.solve(m, b)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(0, period)))
        rng.rayleigh(scale=a[:11])
    cand = np.zeros((8, 6))
    member = np.ones((3, 6))
    cost = np.ones(6)
    for _ in range(400):
        ok = (cand >= -1e-9).all(axis=1) & ((cand @ member.T) <= 1.0).all(axis=1)
        float(np.max(cand[ok] @ cost))
    for _ in itertools.combinations(range(14), 4):
        pass
    return time.perf_counter() - t0
