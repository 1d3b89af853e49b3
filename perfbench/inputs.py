"""Workload inputs, made from the seed alone (the program receives only these).

Complex numbers travel as ``[re, im]`` pairs so the inputs are plain JSON.

Seeded inputs are drawn where the program is accurate to well under the
1e-8 check today, so that no seed decides how many operations fail.  The
program's known faults are exercised by fixed, seed-independent inputs
(``FAULT_LATTICE``, ``FAULT_POINTS``, the CLI sweep grid and the CLI
oracle-grid suite); those fail on every run, by the same count.
"""

import cmath
import math
import random

K_MIN, K_MAX = 2, 24

# Fixed cells over the whole box of the zeta workloads (k in [2, 24],
# Re b in (0.05, 8], |Im b| <= 3).  39 of the 64 lattice cells miss 1e-8
# through the closed form's cancellation; the two extra cells show two more
# faults: the series route's absolute tolerance (zeta_auto(6, 8) is 1.3e-8
# off) and the endpoint check refusing a valid bracket near b = 1/2 at large
# k (DivergenceError).
FAULT_LATTICE_K = (2, 4, 7, 10, 12, 16, 20, 24)
FAULT_LATTICE_B = (1.001, 2.5, 3.75, 7.3, complex(5.2, -1.3), complex(1.3, 2.5),
                   complex(6.1, -2.9), complex(0.75, 0.25))
FAULT_LATTICE = [(k, b) for k in FAULT_LATTICE_K for b in FAULT_LATTICE_B] + [
    (6, 8.0), (23, complex(0.4909441357573397, 0.08848688183090925))]

SEEDED_CELLS = 1200        # > 512 distinct keys per round, so the program's
                           # lru_cache (maxsize 512) never hits across rounds
RECOVERIES = 24
POINTS_PER_BRANCH = 64
NODES = 32
X_MIN = 0.1                # below it the integer branches lose relative accuracy
# Fixed point showing that fault: genfun_closed(1e-4 + 1e-4i, 4) is 2.6e-4 off.
FAULT_POINTS = [(complex(1e-4, 1e-4), 4.0)]

SWEEP_K = (2, 5, 8, 12, 16, 20, 24)
SWEEP_B = (0.5, 8.0, 16)   # start, stop, count: integers 1..8 take the series route
SWEEP_B_IM = 0.0


def pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _uniform(rng, lo, hi):
    return lo + (hi - lo) * rng.random()


def _index(rng, n):
    return int(rng.random() * n) % n


def safe_cell(rng, k):
    """Non-integer b where the closed form meets 1e-8 with a wide margin.

    Re b <= 1.5 for k <= 4 and Re b <= 0.4 beyond, |Im b| <= 1, and
    |1 - q| >= 0.5 with q = exp(-2*pi*i*b), which keeps b away from the
    integers.  Past Re b = 0.4 at large k the endpoint check starts to
    refuse valid brackets (see FAULT_LATTICE).
    """
    re_max = 1.5 if k <= 4 else 0.4
    while True:
        b = complex(_uniform(rng, 0.05, re_max), _uniform(rng, -1.0, 1.0))
        if abs(1.0 - cmath.exp(-2j * math.pi * b)) >= 0.5:
            return b


def zeta_cells(seed):
    """Seeded cells (a tenth at positive integer b <= 4) then FAULT_LATTICE.

    k is stratified over [2, 24] so every seed has the same mix of orders.
    Integer b stops at 4 because the series route's tolerance is absolute:
    past that its relative error nears 1e-8 (see FAULT_LATTICE).
    """
    rng = random.Random(seed)
    cells = []
    for i in range(SEEDED_CELLS):
        k = K_MIN + i % (K_MAX - K_MIN + 1)
        if i % 10 == 9:
            cells.append((k, complex(1 + _index(rng, 4))))
        else:
            cells.append((k, safe_cell(rng, k)))
    rng.shuffle(cells)
    return [(k, pair(b), False) for k, b in cells] + [
        (k, pair(b), True) for k, b in FAULT_LATTICE
    ]


def _dist_to_int(w):
    return abs(w - round(w.real))


def generic_b(rng, re_lo, re_hi, im_max):
    """b with 2b at least 0.2 from the integers (the generic branch)."""
    while True:
        b = complex(_uniform(rng, re_lo, re_hi), _uniform(rng, -im_max, im_max))
        if _dist_to_int(2 * b) >= 0.2:
            return b


def genfun_inputs(seed):
    """Recoveries zeta_from_genfun(k, b, radius, 32) and genfun_closed points.

    Recoveries: k in [2, 8] (nodes >= 4k), b generic in the zeta box,
    radius 0.3..0.45 of the convergence radius |1 + b| (aliasing below
    0.45**32 ~ 1e-11).  Points: |Re x|, |Im x| <= 0.45, |x| >= X_MIN, and
    64 b on each branch (generic, 0, positive integer, negative integer),
    x at least 0.05 from every singular locus of the generic branch; then
    FAULT_POINTS.
    """
    rng = random.Random(seed)
    recoveries = []
    for i in range(RECOVERIES):
        k = 2 + i % 7
        b = generic_b(rng, 0.05, 8.0, 3.0)
        radius = _uniform(rng, 0.3, 0.45) * abs(1.0 + b)
        recoveries.append((k, pair(b), radius))
    points = []
    for branch in ("generic", "zero", "pos_int", "neg_int"):
        for _ in range(POINTS_PER_BRANCH):
            if branch == "generic":
                b = generic_b(rng, -3.0, 4.0, 1.0)
            elif branch == "zero":
                b = 0j
            elif branch == "pos_int":
                b = complex(1 + _index(rng, 8))
            else:
                b = complex(-1 - _index(rng, 8))
            while True:
                x = complex(_uniform(rng, -0.45, 0.45), _uniform(rng, -0.45, 0.45))
                if abs(x) >= X_MIN and (branch != "generic" or (
                    abs(x - b) >= 0.05 and _dist_to_int(x - b) >= 0.05
                    and _dist_to_int(2 * (x - b)) >= 0.05
                )):
                    break
            points.append((pair(x), pair(b), False))
    rng.shuffle(points)
    points += [(pair(x), pair(b), True) for x, b in FAULT_POINTS]
    return {"recoveries": recoveries, "points": points}


def cli_inputs(seed):
    """One round of CLI invocations: eval at a seeded safe cell, the fixed
    sweep grid, every validation suite under the seed, and oddzeta 1-10."""
    rng = random.Random(seed)
    k = K_MIN + _index(rng, K_MAX - K_MIN + 1)
    b = safe_cell(rng, k)
    return {
        "eval": ["eval", "--k", str(k), "--b", f"{b.real!r},{b.imag!r}"],
        "sweep": ["sweep", "--k", ",".join(map(str, SWEEP_K)),
                  "--b", "{}:{}:{}".format(*SWEEP_B), "--b-im", str(SWEEP_B_IM)],
        "validate": ["validate", "--suite", "all", "--seed", str(seed)],
        "oddzeta": ["oddzeta", "--j", "1-10"],
    }
