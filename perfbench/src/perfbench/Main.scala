package perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Runs one workload in this JVM and prints one JSON result line.
  *
  * Protocol: set up (input, Spark, warm-up queries), compute the reference
  * answer, then send queries in a closed loop — one client, the next query
  * when the previous returns — for at least `--seconds` seconds. Every
  * answer is compared with the reference. `--trace 0` reports the
  * end-to-end metrics, with times scaled to a reference host speed by the
  * [[HostSpeed]] gauge; `--trace 1` alternates untraced and traced queries
  * and reports the per-layer metrics, unscaled.
  *
  * Usage: Main --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  */
object Main {

  val endToEnd: Vector[(String, String)] = Vector(
    "explain_ms_p50" -> "ms",
    "explain_cpu_ms" -> "ms",
    "explain_alloc_mb" -> "MB",
    "setup_s" -> "s",
  )

  val perLayer: Vector[(String, String)] = Vector(
    "sparkCube.ms" -> "ms", "sparkCube.rows_in" -> "count", "sparkCube.rows_out" -> "count",
    "sparkCube.shuffle_mb" -> "MB", "sparkCube.tasks" -> "count", "sparkCube.eps" -> "count",
    "precompute.ms" -> "ms", "precompute.eps_in" -> "count", "precompute.eps_out" -> "count",
    "topTable.ms" -> "ms", "topTable.segments" -> "count", "topTable.us_per_segment" -> "us",
    "topTable.alloc_mb" -> "MB", "topTable.ca_runs" -> "count", "topTable.mbar_max" -> "count",
    "topTable.first_guess_ratio" -> "ratio",
    "costMatrix.ms" -> "ms", "costMatrix.lookups" -> "count", "costMatrix.cells" -> "count",
    "costMatrix.ns_per_lookup" -> "ns", "costMatrix.alloc_mb" -> "MB",
    "sketch.ms" -> "ms", "sketch.size" -> "count", "sketch.max_seg_len" -> "count",
    "dp.ms" -> "ms", "dp.positions" -> "count", "dp.k_cap" -> "count",
    "elbow.ms" -> "ms", "elbow.k" -> "count",
    "render.ms" -> "ms",
    "gc.ms" -> "ms", "gc.count" -> "count",
    "trace.overhead_ms" -> "ms",
    "host.gauge_ms" -> "ms",
  )

  /** Resources one query used, read before and after it. */
  final case class Sample(wallMs: Double, cpuMs: Double, allocMb: Double, gcMs: Double, gcCount: Double)

  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector

  private def gcTotals: (Long, Long) =
    gcs.foldLeft((0L, 0L)) { case ((t, c), b) => (t + math.max(0L, b.getCollectionTime), c + math.max(0L, b.getCollectionCount)) }

  def measured[A](body: => A): (A, Sample) = {
    val (gt0, gc0) = gcTotals
    val a0 = Tracer.threads.getTotalThreadAllocatedBytes
    val c0 = os.getProcessCpuTime
    val t0 = System.nanoTime()
    val a = body
    val t1 = System.nanoTime()
    val c1 = os.getProcessCpuTime
    val a1 = Tracer.threads.getTotalThreadAllocatedBytes
    val (gt1, gc1) = gcTotals
    (a, Sample((t1 - t0) / 1e6, (c1 - c0) / 1e6, (a1 - a0) / 1e6, (gt1 - gt0).toDouble, (gc1 - gc0).toDouble))
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Tallies queries and checks each answer against the reference. */
  final class Checker(reference: Answer) {
    var attempted = 0
    var failed = 0
    private var table: Option[String] = None

    /** Runs one query; returns its sample, or None when it failed. */
    def run(label: String)(q: => TracedExplain.Output): Option[Sample] = {
      attempted += 1
      val outcome =
        try {
          val (out, s) = measured(q)
          val problem = Answer.diff(reference, Answer.of(out.cube, out.explanation)).orElse {
            if (table.forall(_ == out.table)) { table = Some(out.table); None }
            else Some("rendered table differs from the first query's")
          }
          problem.toLeft(s)
        } catch { case NonFatal(e) => Left(s"threw $e") }
      outcome.left.foreach { why =>
        failed += 1
        System.err.println(s"[perfbench] $label query $attempted failed: $why")
      }
      outcome.toOption
    }
  }

  final case class Options(workload: String, seed: Option[Long], seconds: Double, trace: Boolean)

  def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace")
    require(args.length % 2 == 0 && unknown.isEmpty && kv.contains("workload"),
      "usage: --workload NAME [--seed N] [--seconds S] [--trace 0|1]")
    Options(kv("workload"), kv.get("seed").map(_.toLong), kv.get("seconds").fold(30.0)(_.toDouble),
      kv.get("trace").exists(_ != "0"))
  }

  def main(args: Array[String]): Unit = {
    val opt = parse(args)
    val wl = Workloads.byName(opt.workload)
    val seed = opt.seed.getOrElse(wl.defaultSeed)
    // Set-up is timed from the launch of this JVM (or from the launcher's
    // spawn, when it passes one) to the first timed query.
    val startNs = sys.props.get("perfbench.spawnEpochNs").map(_.toLong)
      .getOrElse(ManagementFactory.getRuntimeMXBean.getStartTime * 1000000L)
    // The host gauge is read at set-up and before every timed query; the
    // run's times are scaled by the median reading (see HostSpeed).
    val gauges = Vector.newBuilder[Double]
    HostSpeed.warmUp()
    gauges += HostSpeed.gaugeMs()
    wl.setUp(seed)
    (1 to wl.warmUps).foreach { _ => gauges += HostSpeed.gaugeMs(); wl.query() }
    val nowNs = { val i = java.time.Instant.now(); i.getEpochSecond * 1000000000L + i.getNano }
    val setupS = (nowNs - startNs) / 1e9

    val check = new Checker(wl.reference())
    val deadline = System.nanoTime() + (opt.seconds * 1e9).toLong
    def more(minQueries: Int) = check.attempted < minQueries || System.nanoTime() < deadline
    val metrics: Vector[(String, Double, String)] =
      if (!opt.trace) {
        val samples = Vector.newBuilder[Sample]
        while (more(3)) {
          gauges += HostSpeed.gaugeMs()
          samples ++= check.run(wl.name)(wl.query())
        }
        gauges += HostSpeed.gaugeMs()
        val s = samples.result()
        val (wallP50, cpuP50, gauge) = (median(s.map(_.wallMs)), median(s.map(_.cpuMs)), median(gauges.result()))
        println(f"# ${wl.name} seed=$seed queries=${s.size} tail=${tail(s.map(_.wallMs))} " +
          f"failed_frac=${check.failed.toDouble / check.attempted} unscaled_ms_p50=$wallP50%.1f " +
          f"unscaled_cpu_ms=$cpuP50%.0f unscaled_setup_s=$setupS%.3f gauge_ms=$gauge%.2f " +
          f"wall_ms=${s.map(v => f"${v.wallMs}%.0f").mkString(",")}")
        val values = Map(
          "explain_ms_p50" -> HostSpeed.scale(wallP50, gauge),
          "explain_cpu_ms" -> HostSpeed.scale(cpuP50, gauge),
          "explain_alloc_mb" -> median(s.map(_.allocMb)),
          "setup_s" -> HostSpeed.scale(setupS, gauge),
        )
        endToEnd.map { case (name, unit) => (name, values(name), unit) }
      } else {
        val untraced = Vector.newBuilder[Sample]
        val traced = Vector.newBuilder[Map[String, Double]]
        while (more(4)) {
          gauges += HostSpeed.gaugeMs()
          if (check.attempted % 2 == 0) untraced ++= check.run(wl.name)(wl.query())
          else {
            val tr = new Tracer
            check.run(s"${wl.name} traced")(wl.tracedQuery(tr)).foreach(s => traced += layerValues(tr, s))
          }
        }
        val rows = traced.result()
        val untracedP50 = median(untraced.result().map(_.wallMs))
        perLayer.map { case (name, unit) =>
          val v =
            if (name == "trace.overhead_ms") median(rows.map(_("covered_ms"))) - untracedP50
            else if (name == "host.gauge_ms") median(gauges.result())
            else median(rows.map(_.getOrElse(name, 0.0)))
          (name, v, unit)
        }
      }
    wl.close()

    val ok = check.failed == 0 && metrics.forall(m => !m._2.isNaN)
    val body = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }.mkString(", ")
    println(s"""{"correct": $ok, "attempted": ${check.attempted}, "failed": ${check.failed}, "metrics": {$body}}""")
    sys.exit(0) // Spark may leave non-daemon threads behind
  }

  /** The highest percentile with at least ten queries beyond it, by
    * nearest rank; a run of fewer than 20 queries has none above the median.
    */
  def tail(walls: Seq[Double]): String = {
    val pct = math.floor(100.0 - 1000.0 / walls.size).toInt
    if (pct < 50) s"n/a(${walls.size}<20)"
    else f"p$pct=${walls.sorted.apply(math.ceil(pct / 100.0 * walls.size).toInt - 1)}%.1fms"
  }

  private def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString

  /** The per-layer metrics of one traced query. */
  def layerValues(tr: Tracer, s: Sample): Map[String, Double] = {
    val times = Layer.names.indices.map(l => s"${Layer.names(l)}.ms" -> tr.ms(l))
    val segments = tr.counters.getOrElse("topTable.segments", 0.0)
    val lookups = tr.counters.getOrElse("costMatrix.lookups", 0.0)
    def per(x: Double, d: Double) = if (d > 0) x / d else 0.0
    (times ++ tr.counters ++ Seq(
      "topTable.us_per_segment" -> per(tr.ms(Layer.TopTable) * 1e3, segments),
      "topTable.alloc_mb" -> tr.mb(Layer.TopTable),
      "costMatrix.ns_per_lookup" -> per(tr.ms(Layer.CostMatrix) * 1e6, lookups),
      "costMatrix.alloc_mb" -> tr.mb(Layer.CostMatrix),
      "gc.ms" -> s.gcMs,
      "gc.count" -> s.gcCount,
      "covered_ms" -> tr.coveredMs,
    )).toMap
  }
}
