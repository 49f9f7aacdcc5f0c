"""One fork pool for every parallel loop."""

import gc
import os
import pickle
import select
from typing import Callable, Iterator, NoReturn, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def fork_map(fn: Callable[[T], R], tasks: Sequence[T]) -> Iterator[R]:
    """Yield fn(task) for each task in order, from forked workers that
    inherit the tasks, one per usable CPU and at most one per task, or here
    with one usable CPU. A worker is sent its next task when its answer is
    read. A task that raises is re-raised in its turn, as the serial loop
    would raise it; a worker that ends without an answer raises
    ChildProcessError. Closing the generator reaps every worker."""
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    if workers <= 1:
        yield from map(fn, tasks)
        return
    # the indices to send, one when a worker is forked and one when its
    # answer is read; once all are sent, b"" writes nothing
    unsent = (index.to_bytes(4, "little") for index in range(len(tasks)))
    answers = {}  # index -> (ok, result or exception), until its turn
    senders = {}  # a worker's answer pipe -> its task pipe, the parent's ends
    pids = []
    # Freezing spares a worker's collections from writing to the header of
    # every object it inherited, which would copy the page that holds it. A
    # caller's own freeze is left as it was.
    freeze = not gc.get_freeze_count()
    if freeze:
        gc.freeze()
    try:
        for _ in range(workers):
            task_read, task_write = os.pipe()
            answer_read, answer_write = os.pipe()
            senders[answer_read] = task_write
            try:
                if (pid := os.fork()) == 0:
                    _worker(fn, tasks, task_read, answer_write, [*senders, *senders.values()])
                pids.append(pid)
            finally:  # the child's ends; in the child, _worker never returns
                os.close(task_read)
                os.close(answer_write)
            os.write(task_write, next(unsent, b""))
        for index in range(len(tasks)):
            while index not in answers:
                for answer_read in select.select(list(senders), [], [])[0]:
                    # the worker has no task until this answer is read, so
                    # the pipe holds nothing more for a reader made here to drop
                    try:
                        answers.update(pickle.load(open(answer_read, "rb", closefd=False)))
                    except (EOFError, pickle.UnpicklingError):
                        raise ChildProcessError("a worker ended without an answer") from None
                    os.write(senders[answer_read], next(unsent, b""))
            ok, value = answers.pop(index)
            if not ok:
                raise value
            yield value
    finally:
        if freeze:
            gc.unfreeze()
        # a worker waiting for a task reads end of file, and one still
        # running fails to send its answer: either leaves
        for fd in [*senders, *senders.values()]:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def _worker(fn, tasks, task_read: int, answer_write: int, parent_ends: list[int]) -> NoReturn:
    """A forked worker: answer task indices until end of file; leave by os._exit."""
    try:
        # the parent's ends of every pipe so far, this worker's own included,
        # so that the parent's closing them reaches every worker
        for fd in parent_ends:
            os.close(fd)
        with open(answer_write, "wb") as out:
            while index := os.read(task_read, 4):
                index = int.from_bytes(index, "little")
                try:
                    answer = (True, fn(tasks[index]))
                except Exception as exc:
                    answer = (False, exc)
                pickle.dump({index: answer}, out)
                out.flush()
    finally:
        os._exit(0)
