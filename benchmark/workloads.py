"""The benchmark's three workloads: configs for `randpde.experiments.run`,
generated from a seed.

Each workload is one experiment config. `config_text` writes it as the INI
text the program's CLI reads; the same (workload, seed, quick) always gives
the same text. The constants below are also what the independent checks in
`checks.py` compute their expectations from, so the checks never read the
law or the geometry back from the program's own config snapshot.
"""

from __future__ import annotations

WORKLOADS = ("vr-compare", "msfem-discs", "msfem-random")

# vr-compare: the 3/20 checkerboard written in defect form.
A_PER = 3.0
C_PER = 17.0
ETA = 0.5
STRATEGIES = ("mc", "antithetic", "cv1", "cv2", "sqs1", "sqs2")

# msfem-discs: the epsilon = 0.1 lattice with discs of radius 0.2 epsilon.
EPSILON = 0.1
RADIUS_FACTOR = 0.2

# msfem-random: criterion 8's rectangle cloud. The geometry seed is fixed:
# the reference's CG iterations vary by +-12% between geometries (931 to
# 1201 at N = 512 over gseeds 2027-2036), which would put the geometry
# draw, not the program, into the spread of wall_s across seeds.
RECT_COUNT = 100
RECT_SIDES = (0.02, 0.05)
GSEED = 2026

# Full and reduced ("quick") sizes. The reduced sizes only exercise the
# harness and its checks; their timings mean nothing.
SIZES = {
    "vr-compare": {
        False: {"n": 6, "r": 8, "m": 40, "pool": 2000},
        True: {"n": 6, "r": 4, "m": 40, "pool": 200},
    },
    "msfem-discs": {
        False: {"h": (5, 10), "fine_n": (32, 16), "reference_n": 160},
        True: {"h": (10,), "fine_n": (16,), "reference_n": 160},
    },
    "msfem-random": {
        False: {"h": (16,), "fine_n": (32,), "reference_n": 512},
        True: {"h": (8,), "fine_n": (16,), "reference_n": 128},
    },
}


def sizes(workload: str, quick: bool) -> dict:
    return SIZES[workload][quick]


def config_text(workload: str, seed: int, out: str, quick: bool = False) -> str:
    """INI text of the workload's experiment for this seed."""
    size = sizes(workload, quick)
    head = f"[experiment]\nseed = {seed}\nout = {out}\nthreads = 1\n"
    if workload == "vr-compare":
        return (head + "kind = vr-compare\n\n"
                "[law]\nkind = perturbed_periodic\n"
                f"a_per = {A_PER:g}\nc_per = {C_PER:g}\neta = {ETA:g}\n\n"
                f"[estimate]\nn = {size['n']}\nr = {size['r']}\nm = {size['m']}\n"
                f"strategies = {', '.join(STRATEGIES)}\npool = {size['pool']}\n")
    msfem = ("[msfem]\n"
             f"h = {', '.join(f'1/{m}' for m in size['h'])}\n"
             f"fine_n = {', '.join(str(fn) for fn in size['fine_n'])}\n"
             f"reference_n = {size['reference_n']}\n"
             "f = one\nwith_bubbles = true\n")
    if workload == "msfem-discs":
        return (head + "kind = msfem-robustness\n\n"
                "[geometry]\nkind = periodic_discs\n"
                f"epsilon = {EPSILON:g}\nradius_factor = {RADIUS_FACTOR:g}\n\n"
                + msfem + "methods = cr, linear, q1\n")
    if workload == "msfem-random":
        return (head + "kind = msfem\n\n"
                f"[geometry]\nkind = random_rectangles\ncount = {RECT_COUNT}\n"
                f"width_range = {RECT_SIDES[0]:g}, {RECT_SIDES[1]:g}\n"
                f"height_range = {RECT_SIDES[0]:g}, {RECT_SIDES[1]:g}\n"
                f"gseed = {GSEED}\n\n"
                + msfem + "methods = cr, linear\n")
    raise ValueError(f"unknown workload {workload!r}")
