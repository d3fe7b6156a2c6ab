package repro.core

import java.util.concurrent.{LinkedBlockingQueue, ThreadPoolExecutor, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

/** The JVM's one pool of worker threads, which the similarity probe and the
  * verification share: `availableProcessors − 1` daemon threads, parked when
  * idle. A partition fan-out claims the cores its partition threads use, so a
  * verification enlists only the cores nobody has claimed.
  */
private[repro] object Workers {
  val cores: Int = Runtime.getRuntime.availableProcessors

  private[core] lazy val pool: ThreadPoolExecutor = {
    val n = math.max(1, cores - 1)
    new ThreadPoolExecutor(n, n, 0L, TimeUnit.MILLISECONDS, new LinkedBlockingQueue[Runnable],
      r => { val t = new Thread(r, "koios-worker"); t.setDaemon(true); t })
  }

  private val claims = new AtomicInteger
  private val enlistedTasks = new AtomicLong

  /** Runs `body` holding `n` claims: the threads of a fan-out that runs
    * while `body` does.
    */
  def claiming[A](n: Int)(body: => A): A = {
    claims.addAndGet(n)
    try body finally claims.addAndGet(-n)
  }

  /** The helpers a verification that starts now may enlist:
    * `availableProcessors` less the claims, the calling thread counting as
    * one claim when no fan-out holds any.
    */
  private[core] def idle: Int = math.max(0, cores - math.max(1, claims.get))

  /** Runs `task` on the pool; it counts as one enlisted helper. */
  private[core] def enlist(task: Runnable): Unit = {
    enlistedTasks.incrementAndGet()
    pool.execute(task)
  }

  /** Helper tasks enlisted by every verification so far. */
  private[repro] def enlisted: Long = enlistedTasks.get

  private val threads =
    java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]

  /** Heap bytes the calling thread has allocated so far. */
  private[core] def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes
}
