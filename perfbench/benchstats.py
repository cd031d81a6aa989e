"""Statistics and output checks of the end-to-end benchmark (run.py).

Pure functions, so tests/test_benchstats.py can pin them without
building anything.
"""

import math
import re


def median(values):
    """Median of a non-empty sequence."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def tail(values, beyond=10):
    """The highest percentile that has at least `beyond` samples above it.

    Returns (value, percentile, sample_count). With n samples the value is
    the (n - beyond)-th smallest, which is the 100 * (n - beyond) / n
    percentile. With too few samples there is no such percentile; the
    maximum is returned, as percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("tail of no values")
    if n <= beyond:
        return s[-1], 100.0, n
    rank = n - beyond
    return s[rank - 1], 100.0 * rank / n, n


def calm_passes(steal_shares, limit=0.10):
    """Indices of the passes to time, in order.

    `steal_shares[i]` is the share of the machine's CPU time that the
    hypervisor stole while pass i ran. Passes with a share above `limit`
    are left out; when fewer than half the passes are that calm, the
    least-stolen half is kept.
    """
    n = len(steal_shares)
    calm = [i for i, s in enumerate(steal_shares) if s <= limit]
    if 2 * len(calm) >= n:
        return calm
    least = sorted(range(n), key=lambda i: steal_shares[i])[:(n + 1) // 2]
    return sorted(least)


def geomean(values):
    """Geometric mean of positive values."""
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fail_ratio(attempted, failed):
    """Failed invocations over attempted ones."""
    if attempted < 1:
        raise ValueError("no attempted invocations")
    return failed / attempted


def unattributed_pct(pass_ns, layer_ns):
    """Share (%) of an in-process pass that falls in no layer span."""
    if pass_ns <= 0:
        raise ValueError("empty pass")
    return 100.0 * (pass_ns - sum(layer_ns)) / pass_ns


_STATS_LINE = {
    "members": re.compile(rb"^members in used classes:\s+(\d+)\s*$", re.M),
    "dead": re.compile(rb"^dead members:\s+(\d+) \(", re.M),
}


def check_output(returncode, stdout, expected):
    """Why an invocation failed, or None when it matched its reference.

    `expected` holds the expected exit code ("exit") and either the
    expected stdout bytes ("stdout") or the expected --stats counts
    ("members", "dead"; None skips a count). A signal shows as a negative
    returncode, as subprocess reports it.
    """
    if returncode < 0:
        return "killed by signal %d" % -returncode
    if returncode != expected["exit"]:
        return "exit status %d, expected %d" % (returncode, expected["exit"])
    if "stdout" in expected:
        if stdout != expected["stdout"]:
            return "stdout differs from the reference"
        return None
    for key, pattern in _STATS_LINE.items():
        want = expected.get(key)
        if want is None:
            continue
        m = pattern.search(stdout)
        if not m:
            return "no '%s' line in the --stats report" % key
        if int(m.group(1)) != want:
            return "%s: %d, expected %d" % (key, int(m.group(1)), want)
    return None
