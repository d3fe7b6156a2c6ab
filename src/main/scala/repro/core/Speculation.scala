package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import scala.collection.mutable

/** The exact matchings of one verification, on the calling thread and on up
  * to `helpers` threads of the [[Workers]] pool (DESIGN §1, "Speculative
  * matchings").
  *
  * The caller offers sets as jobs, highest UB first. Helpers claim the next
  * unclaimed job from a shared cursor and solve it against θ_lb as the
  * caller last published it ([[raise]]), skipping a set whose UB is already
  * below it. The caller replays Algorithm 2 unchanged: for each matching it
  * asks [[matching]], which runs an unclaimed job itself, or waits for a
  * claimed one and reclassifies its outcome at the caller's own θ with
  * [[Matching.replay]]. Only the caller raises θ_lb, so every helper run
  * checked thresholds at or below the caller's, and replay gives the outcome
  * the caller's own run would have had; an `Interrupted` helper run is
  * discarded. Helpers thus change how much work is done, never a decision.
  *
  * Each thread builds its matrices in its own [[Matching.Scratch.local]] from
  * the candidate phase's `edges` and `inverted`, which nobody writes after
  * the candidate phase. [[close]] waits for every helper, so no task of the
  * verification outlives it; a helper's exception is rethrown to the caller.
  */
private[core] final class Speculation(candidates: RefinementOutput, qCount: Int, reduced: Boolean,
                                      deadlineNanos: Long, helpers: Int, theta0: Double) {
  import Speculation._

  private val lock = new Object
  private val live = new Matching.LiveThreshold(theta0)
  private val allocated = new AtomicLong
  private val tasks = mutable.ArrayBuffer.empty[Runnable]
  // `batch` is replaced, and the count of enlisted helpers that have not
  // left and the first helper failure change, only under `lock`.
  @volatile private var batch = new Batch(Array.empty)
  @volatile private var closed = false
  private var running = 0
  private var failure: Throwable = _

  /** Offers `jobs` to the helpers, in order, replacing the current batch;
    * enlists helpers up to `helpers` (and the number of jobs).
    */
  def offer(jobs: Array[Job]): Unit = lock.synchronized {
    batch = new Batch(jobs)
    while (running < math.min(helpers, jobs.length)) {
      running += 1
      val task: Runnable = () => help()
      tasks += task
      Workers.enlist(task)
    }
  }

  /** Publishes the caller's θ_lb to helper runs. */
  def raise(theta: Double): Unit = live.value = theta

  /** The outcome of the matching of record `idx` at `theta` that the caller
    * needs now: `job`'s (a job of `idx`, or null), replayed at `theta`, or
    * the caller's own run.
    */
  def matching(idx: Int, job: Job, theta: Double): HungarianOutcome =
    if (job == null) solve(idx, theta)
    else if (job.compareAndSet(Free, Running)) {
      val out = solve(idx, theta)
      job.outcome = out
      job.set(Done)
      out
    } else await(job) match {
      case Interrupted => solve(idx, theta)
      case out         => Matching.replay(out, job.labelSum, theta)
    }

  /** The completed matching of record `idx` for finalization, where `job`
    * is the record's job (or null): a helper's completed run, or else a run
    * without threshold, offered to helpers by [[finalizing]] when `job` was
    * never claimed.
    */
  def exact(idx: Int, job: Job): HungarianOutcome =
    if (job == null) solve(idx, Double.NegativeInfinity)
    else if (job.retry != null) matching(idx, job.retry, Double.NegativeInfinity)
    else await(job) match {
      case c: Completed => c
      case _            => solve(idx, Double.NegativeInfinity)
    }

  /** Ends speculation: withdraws the unclaimed jobs among `jobs` (nulls
    * ignored) and offers their records again, in place of every job offered
    * so far, as runs without threshold for [[exact]].
    */
  def finalizing(jobs: Iterable[Job]): Unit =
    offer(jobs.iterator.filter(j => j != null && j.compareAndSet(Free, Withdrawn)).map { j =>
      j.retry = new Job(j.idx, j.ub, live = false)
      j.retry
    }.toArray)

  /** Stops the helpers' speculative runs, removes the helper tasks still
    * queued and waits for the others to leave.
    */
  def close(): Unit = {
    closed = true
    live.value = Double.PositiveInfinity
    tasks.foreach(t => if (Workers.pool.remove(t)) lock.synchronized(running -= 1))
    lock.synchronized { while (running > 0) lock.wait() }
  }

  /** After [[close]]: the heap bytes the helpers allocated for this
    * verification, or a helper's exception rethrown.
    */
  def helperBytes: Long = lock.synchronized {
    if (failure != null) throw failure
    allocated.get
  }

  private def solve(idx: Int, theta: Double): HungarianOutcome = {
    val s = build(idx)
    Matching.hungarianMax(s, theta, deadlineNanos)
  }

  private def build(idx: Int): Matching.Scratch = {
    val s = Matching.Scratch.local()
    Matching.weights(qCount, candidates.inverted.tokenIds(idx), candidates.edges, reduced, s)
    s
  }

  /** Waits until `job` is done; its outcome, or the helper's exception. */
  private def await(job: Job): HungarianOutcome = lock.synchronized {
    while (!job.done) lock.wait()
    if (job.outcome == null) throw failure
    job.outcome
  }

  private def help(): Unit = {
    var job = next()
    while (job != null) {
      runJob(job)
      job = next()
    }
  }

  /** The next job this helper claims, or null once it has left: when the
    * caller closed, or when the batch it read is the last one offered and
    * has no job left.
    */
  private def next(): Job = {
    var claimed: Job = null
    var left = false
    while (claimed == null && !left) {
      val b = batch
      val i = b.cursor.getAndIncrement()
      if (closed || i >= b.jobs.length) left = lock.synchronized {
        val last = closed || (b eq batch)
        if (last) { running -= 1; lock.notifyAll() }
        last
      } else {
        val j = b.jobs(i)
        if (!(j.live && j.ub < live.value - Matching.PruneEps) && j.compareAndSet(Free, Running))
          claimed = j
      }
    }
    claimed
  }

  private def runJob(job: Job): Unit = {
    val allocated0 = Workers.allocatedBytes()
    var out: HungarianOutcome = null
    var labelSum = 0.0
    try {
      val s = build(job.idx)
      out =
        if (job.live) Matching.hungarianMax(s, live, deadlineNanos)
        else Matching.hungarianMax(s, Double.NegativeInfinity, deadlineNanos)
      labelSum = s.labelSum
    } catch {
      case e: Throwable => lock.synchronized { if (failure == null) failure = e }
    }
    allocated.addAndGet(Workers.allocatedBytes() - allocated0)
    lock.synchronized {
      job.outcome = out
      job.labelSum = labelSum
      job.set(Done)
      lock.notifyAll()
    }
  }
}

private[core] object Speculation {
  /** A set is offered to helpers only when max(|Q|, |C|) exceeds this. A
    * full matching of n = 96 took 0.5 ms, 8× the 60 µs median round trip of
    * a hand-off to a parked pool thread (DESIGN §1).
    */
  val MinSize = 100

  private val Free = 0
  private val Running = 1
  private val Done = 2
  private val Withdrawn = 3

  /** One matching of record `idx` (UB `ub`) that a helper may run: against
    * the caller's published θ_lb (`live`), or without threshold. Its state
    * goes Free → Running → Done, or Free → Withdrawn.
    */
  final class Job(val idx: Int, val ub: Double, val live: Boolean) extends AtomicInteger(Free) {
    private[Speculation] var outcome: HungarianOutcome = _
    private[Speculation] var labelSum = 0.0
    private[Speculation] var retry: Job = _
    def done: Boolean = get == Done
  }

  private final class Batch(val jobs: Array[Job]) {
    val cursor = new AtomicInteger
  }
}
