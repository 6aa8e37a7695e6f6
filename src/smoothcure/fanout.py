"""The one fan-out of independent tasks over worker processes.

Monte Carlo replications, bootstrap refits and the row blocks of a bandwidth
scan all go through :func:`_fan_out`.  Results come back in task order, so a
caller that combines them in that order gets the same answer for any worker
count.
"""

from __future__ import annotations

import os


def _fan_out(replicate, tasks: list, n_jobs: int) -> list:
    """``replicate`` mapped over ``tasks``, results in task order: in this
    process when ``n_jobs <= 1``, otherwise over ``n_jobs`` worker processes
    (never more than there are tasks).

    The workers take the tasks one at a time, in list order, from a shared
    counter, so a worker that starts later or runs slower takes fewer, and
    the workers finish within about one task of each other.  Each worker
    sends its results once, when no task is left.  An error that
    ``replicate`` raises in a worker stops the others after their current
    task and is raised here.  Every worker is joined before the call
    returns.
    """
    if n_jobs <= 1:
        return [replicate(task) for task in tasks]
    # Imported on first use: most calls run in this process.
    import multiprocessing

    context = multiprocessing.get_context()
    taken = context.Value("q", 0)
    workers, pipes = [], []
    results: list = [None] * len(tasks)
    try:
        for _ in range(min(n_jobs, len(tasks))):
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_work, args=(replicate, tasks, taken, send))
            worker.start()
            send.close()
            workers.append(worker)
            pipes.append(receive)
        for receive in pipes:
            try:
                done, error = receive.recv()
            except EOFError:
                raise RuntimeError("a worker process ended without sending its results") from None
            if error is not None:
                raise error
            for i, result in done:
                results[i] = result
    except BaseException:
        # A worker may still be running, or blocked sending to a pipe that
        # is no longer read.
        for worker in workers:
            worker.terminate()
        raise
    finally:
        for worker in workers:
            worker.join()
    return results


def _work(replicate, tasks: list, taken, send) -> None:
    """One worker of :func:`_fan_out`: run the next task nobody has taken
    until none is left, then send the (index, result) pairs, or the error
    that stopped it."""
    done = []
    try:
        while True:
            with taken.get_lock():
                i = taken.value
                taken.value = i + 1
            if i >= len(tasks):
                break
            done.append((i, replicate(tasks[i])))
    except Exception as error:
        with taken.get_lock():
            taken.value = len(tasks)
        send.send((None, error))
    else:
        send.send((done, None))


def _free_workers() -> int:
    """Worker processes this process may fan out to unasked: one per CPU it
    may run on, where it is not itself a worker and the start method is
    fork (a forked worker inherits the parent's modules; a spawned one would
    import the package afresh); otherwise 1.  Reading the start method does
    not fix it: where none is set, the platform default counts."""
    import multiprocessing

    method = multiprocessing.get_start_method(allow_none=True) or multiprocessing.get_all_start_methods()[0]
    if multiprocessing.parent_process() is not None or method != "fork":
        return 1
    return len(os.sched_getaffinity(0))
