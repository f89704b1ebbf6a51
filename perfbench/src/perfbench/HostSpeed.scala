package perfbench

/** Gauges how fast the shared host runs, so that times taken an hour apart
  * can be compared.
  *
  * Other tenants of a shared VM change its speed for many minutes at a time:
  * the same `synthetic` runs took a median of 1.0 s per query in one set and
  * 0.82 s in a set forty minutes later. The gauge is a fixed CPU kernel,
  * timed at set-up and before every timed query. It shares no code with the
  * program and allocates nothing, so neither the program nor the heap the
  * program leaves behind changes its time; the host does. A time `t` from a
  * run whose gauge read `g` ms (the median over the run) is reported as
  * `t * ReferenceMs / g`: the time it would have taken on a host where the
  * gauge reads `ReferenceMs`.
  */
object HostSpeed {
  val ReferenceMs = 50.0

  // 1 MB: inside a core's L2, so the cache lines a query leaves behind cost
  // a refill of well under a millisecond.
  private val table = new Array[Long](1 << 17)
  private val steps = 12000000
  @volatile private var sink = 0L

  /** Runs the kernel once; returns its wall time in ms. */
  def gaugeMs(): Double = {
    val t0 = System.nanoTime()
    val mask = table.length - 1
    var x = 0x9E3779B97F4A7C15L
    var acc = 0L
    var i = 0
    while (i < steps) {
      x ^= x << 13; x ^= x >>> 7; x ^= x << 17
      val j = (x & mask).toInt
      table(j) += x
      acc += table((j * 31 + 7) & mask)
      i += 1
    }
    sink += acc
    (System.nanoTime() - t0) / 1e6
  }

  /** Runs the kernel until the JIT has compiled it. */
  def warmUp(): Unit = (1 to 10).foreach(_ => gaugeMs())

  /** `t`, taken on a host whose gauge read `gauge` ms, at the reference speed. */
  def scale(t: Double, gauge: Double): Double = t * ReferenceMs / gauge
}
