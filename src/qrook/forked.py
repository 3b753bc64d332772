"""Independent checks run in forked worker processes.

``_map_forked(check, costs)`` equals ``[check(i) for i in
range(len(costs))]``, with the indices split by cost across this process
and children forked from it.  `cli` runs a family's modules through it,
and `tensor.verify_phiP` its relation suites beside its centralizer
span.  With one CPU, without os.fork, or while another thread runs,
every check runs in-process and nothing forks.
"""

from __future__ import annotations

import os
import threading


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _worker_count(jobs: int) -> int:
    """Processes to run `jobs` independent checks in: one per CPU and at
    most one per job.  It is 1 without os.fork, and while another thread
    runs, since a forked child would hold that thread's locks but not the
    thread."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_cpu_count(), jobs))


def _split(costs: list, workers: int) -> list:
    """The indices of costs in `workers` shares, each in increasing
    order: the costliest first, each to the least-loaded share, ties
    broken by index, so the split depends on the costs alone."""
    loads = [0] * workers
    shares = [[] for _ in range(workers)]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += costs[i]
    return [sorted(share) for share in shares]


def _run_share(check, share) -> tuple:
    """("ok", {i: check(i)}) over share in order, or ("error", i, exc)
    for its first i whose check raises."""
    results = {}
    for i in share:
        try:
            results[i] = check(i)
        except Exception as exc:
            return ("error", i, exc)
    return ("ok", results)


def _map_forked(check, costs: list) -> list:
    """[check(i) for i in range(len(costs))], the indices split by cost
    across _worker_count processes: this one and children forked from it.
    This process runs the share of the costliest index.  A child runs its
    share, sends the pickled outcome through its own pipe and ends in
    os._exit.  The exception raised is the one of the smallest failing
    index, which the serial loop would have raised, since each share runs
    in increasing order and stops at its first failure.  A child that
    ends without a readable outcome has its share run here.  Every child
    is reaped before this returns or raises."""
    shares = _split(costs, _worker_count(len(costs)))
    if len(shares) > 1:  # neither start-up nor the one-CPU path pays for these
        import pickle
        import signal
    children = []
    done = False
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(pickle.dumps(_run_share(check, share)))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb"), share))
        outcomes = [_run_share(check, shares[0])]
        for _, pipe, share in children:
            try:
                outcomes.append(pickle.loads(pipe.read()))
            except Exception:  # the child died, or its exception does not unpickle
                outcomes.append(_run_share(check, share))
        done = True
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    errors = [outcome[1:] for outcome in outcomes if outcome[0] == "error"]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    results = {}
    for _, share_results in outcomes:
        results.update(share_results)
    return [results[i] for i in range(len(costs))]
