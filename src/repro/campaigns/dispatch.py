"""Pluggable campaign dispatch backends.

The runner used to hardwire two execution strategies (an inline loop
and static ``multiprocessing`` shards) into ``run_campaign`` itself;
this module factors them behind one seam so new strategies — and the
campaign-as-a-service worker pool the ROADMAP names — plug in without
touching the runner's determinism or checkpointing logic.

A dispatcher consumes the runner's job list (a job = one solo scenario
or one replica batch) and a picklable ``run_job`` callable, and yields
completed result batches in *completion* order.  Result ordering is
irrelevant to correctness: the runner re-sorts by scenario index before
aggregation, which is what keeps aggregates bit-identical across every
backend and worker count.

Shipped backends (:data:`DISPATCHER_NAMES`):

* ``serial`` — inline in-process loop; yields after every job, so
  checkpoints stream at per-job granularity (the 1-worker reference
  every identity gate compares against);
* ``shards`` — the classic static sharding: jobs are grouped into
  ~``4 × workers`` shards and mapped over a process pool, amortizing
  per-task dispatch overhead at the cost of per-shard checkpoint
  granularity and straggler exposure;
* ``queue`` — work-stealing over a shared task queue: every worker
  pulls the *next single job* the moment it goes idle (``chunksize=1``
  over the pool's shared inbound queue), so one slow job — a ``net``
  row, say — delays only its own worker instead of idling a whole
  statically assigned shard.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

Job = TypeVar("Job")
Results = TypeVar("Results")

#: The dispatch backend registry, in documentation order.
DISPATCHER_NAMES = ("serial", "shards", "queue")


def _run_job_list(
    run_job: Callable[[Job], List[Results]], shard: Sequence[Job]
) -> List[Results]:
    """Run every job of one static shard in a worker process."""
    results: List[Results] = []
    for job in shard:
        results.extend(run_job(job))
    return results


class Dispatcher:
    """One campaign execution strategy.

    ``dispatch`` lazily yields lists of completed results; the runner
    folds each batch into the result map and the JSONL checkpoint as it
    arrives, so a kill mid-campaign loses at most the in-flight batch
    regardless of backend.
    """

    #: The registry name (set by subclasses).
    name = ""

    def dispatch(
        self,
        jobs: Sequence[Job],
        run_job: Callable[[Job], List[Results]],
    ) -> Iterator[List[Results]]:
        """Yield completed result batches in completion order."""
        raise NotImplementedError


class SerialDispatcher(Dispatcher):
    """Inline in-process execution, one job at a time."""

    name = "serial"

    def dispatch(self, jobs, run_job):
        """Run each job inline; yield its results immediately."""
        for job in jobs:
            yield run_job(job)


class ProcessPoolDispatcher(Dispatcher):
    """Static sharding over a ``multiprocessing`` pool.

    Shards are sized so each worker receives several (amortizing
    process start-up) while keeping enough shards in flight to even
    out scenario-length skew — the pre-seam ``run_campaign`` strategy,
    verbatim.
    """

    name = "shards"

    def __init__(self, workers: int, shard_size: Optional[int] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self.workers = workers
        self.shard_size = shard_size

    def make_shards(self, jobs: Sequence[Job]) -> List[List[Job]]:
        """Greedily pack jobs into shards of ``shard_size`` scenarios
        (default: ~4 shards in flight per worker)."""
        total = sum(len(job) for job in jobs)
        shard_size = self.shard_size
        if shard_size is None:
            shard_size = max(1, total // max(1, self.workers * 4))
        shards: List[List[Job]] = []
        current: List[Job] = []
        count = 0
        for job in jobs:
            current.append(job)
            count += len(job)
            if count >= shard_size:
                shards.append(current)
                current, count = [], 0
        if current:
            shards.append(current)
        return shards

    def dispatch(self, jobs, run_job):
        """Map shards over the pool; yield per completed shard."""
        import functools
        import multiprocessing

        shards = self.make_shards(jobs)
        if not shards:
            return
        context = multiprocessing.get_context()
        run_shard = functools.partial(_run_job_list, run_job)
        with context.Pool(processes=self.workers) as pool:
            yield from pool.imap_unordered(run_shard, shards)


class QueueDispatcher(Dispatcher):
    """Work-stealing dispatch over a shared task queue.

    Jobs are fed to the pool one at a time (``chunksize=1``), so the
    pool's inbound queue *is* the shared work queue: an idle worker
    steals the next pending job immediately, and a straggler delays
    only itself.  Pays one task-dispatch round-trip per job — noise for
    campaign-scale jobs, measurable only for micro-jobs (where
    ``shards`` remains the right backend).
    """

    name = "queue"

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def dispatch(self, jobs, run_job):
        """Stream single jobs through the pool; yield per completion."""
        import multiprocessing

        if not jobs:
            return
        context = multiprocessing.get_context()
        with context.Pool(processes=self.workers) as pool:
            yield from pool.imap_unordered(run_job, jobs, chunksize=1)


def make_dispatcher(
    name: str, workers: int = 1, shard_size: Optional[int] = None
) -> Dispatcher:
    """Build the named dispatch backend with a clear error.

    ``shard_size`` only applies to ``shards`` (the other backends have
    no static sharding to size) and is rejected elsewhere rather than
    silently ignored.
    """
    if name == "serial":
        if shard_size is not None:
            raise ValueError("the serial dispatcher takes no shard_size")
        return SerialDispatcher()
    if name == "shards":
        return ProcessPoolDispatcher(workers, shard_size)
    if name == "queue":
        if shard_size is not None:
            raise ValueError(
                "the queue dispatcher is shard-less by design; "
                "shard_size only applies to dispatch='shards'"
            )
        return QueueDispatcher(workers)
    valid = ", ".join(DISPATCHER_NAMES)
    raise ValueError(
        f"unknown dispatcher {name!r}: valid dispatchers are {valid}"
    )
