"""Peak resident memory of a fresh process that runs one workload pass.

Usage: python3 bench/rss_probe.py SRC WORKLOAD SEED OUTDIR

Imports pstnet from SRC, runs the workload's commands once into OUTDIR
and prints the process's peak resident set (VmHWM) in kB.  VmHWM belongs
to this process's own address space; ``ru_maxrss`` may instead report
the peak of the process that spawned it.
"""

import sys
from pathlib import Path

from workloads import commands, run_pass


def main() -> None:
    src, workload, seed, outdir = sys.argv[1:]
    sys.path.insert(0, src)
    import pstnet.cli

    # failures are counted by the timed passes; this process only reports memory
    run_pass(pstnet.cli.main, commands(workload, int(seed)), Path(outdir))
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            print(int(line.split()[1]))
            return
    sys.exit("rss_probe: no VmHWM in /proc/self/status")


if __name__ == "__main__":
    main()
