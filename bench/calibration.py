"""A fixed pure-Python kernel that measures how fast the machine runs right now.

The benchmark's machine is a few cores of a shared host whose speed drifts by
a quarter or more over minutes, and the drift slows pure-Python code of any
kind by a similar factor. The worker times this kernel before every design,
outside the design's timed region, and each set-up launch times it once it is
ready. The parent reports each time scaled by REFERENCE_MS / (the median of
the kernel runs nearest to it in the same process): the time it would have
taken with the machine at the kernel's reference speed. Two commits
compared on one machine run the same kernel, so the scale only removes the
drift between their runs. The raw wall times are reported beside the scaled
ones.

The kernel does wide-integer bit operations with dict counting and small
function calls, like the minimizer's cube tables. Of the kernels tried (this
one, a scan of an AND plane one vector at a time, dict-and-small-int,
object-allocation and a 2 MB random walk), it tracked plakit's flows most
closely. It is the benchmark's own code, so no change to plakit moves it.
"""

# The kernel's median, in ms, on an uncontended core of the 2-vCPU Xeon host
# the benchmark was tuned on; 10 ms or more when that host is at its slowest.
REFERENCE_MS = 5.5
ROUNDS = 5000


def _step(word, row):
    return (word >> row) & 1


def kernel():
    """One fixed amount of work; returns a checksum so nothing is optimised away."""
    mask = (1 << 1024) - 1
    acc = 0x9E3779B97F4A7C15
    counts = {}
    total = 0
    for i in range(ROUNDS):
        acc = ((acc << 7) ^ (acc >> 3) ^ i) & mask
        key = (i * 2654435761) & 255
        counts[key] = counts.get(key, 0) + _step(acc, key)
        total += _step(acc, i & 1023) + bin(acc & 0xFFFF).count("1")
    return total + len(counts)
