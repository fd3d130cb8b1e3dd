"""Fixed reference computation, timed next to every measured command.

The host's speed drifts by tens of percent over minutes, and a measured time
drifts with it.  This child does a fixed amount of the kinds of work the
workloads do, so the ratio of a measured time to the reference time taken
just before it cancels most of that drift (see ``run.py``).  It never
imports dynstc: no change to the program can move it.

Run it as ``python3 perfbench/reference.py``; it prints a checksum.
"""

import numpy as np


def main():
    # many tiny array operations driven from Python, like the simulator's RK4 flow
    x = np.array([0.3, -0.2])
    hold = x.copy()
    for _ in range(8000):
        e = hold - x
        f = np.stack([x[1], -x[0] - x[1] + e[0] * e[1]])
        x = x + 0.001 * f
    # a few large vectorized passes, like synthesis over the state x error grid
    grid = np.linspace(-1.0, 1.0, 256 * 3000 * 2).reshape(256, 3000, 2)
    peak = max(float(np.einsum("bei,bei->be", grid, grid + k).max()) for k in range(3))
    # float formatting, like the CSV writers
    text = ",".join(repr(v) for v in np.linspace(0.0, 1.0, 40000).tolist())
    print(f"{x[0]:.12g} {peak:.12g} {len(text)}")


if __name__ == "__main__":
    main()
