package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.core._
import repro.cube.ExplanationCube
import repro.eval.Benches
import repro.synth.{RealWorldSim, SyntheticGen}
import TracedExplain.Output

/** One explain workload: an input made from the seed, one `TSExplain`
  * configuration, and the reference answer the plainest exact path gives.
  */
trait Workload {
  def name: String
  /** Seed the generator gets when the command line names none. */
  def defaultSeed: Long
  /** Untimed queries run at the end of set-up so the timed ones run JIT-warm. */
  def warmUps: Int
  def setUp(seed: Long): Unit
  /** One explain query from input to rendered table, as an analyst issues it. */
  def query(): Output
  /** The same query through [[TracedExplain]], with spans per layer. */
  def tracedQuery(tr: Tracer): Output
  def reference(): Answer
  def close(): Unit = ()
}

/** A cube already on the driver: the query is `explain` plus rendering. */
final class CubeWorkload(
    val name: String,
    val defaultSeed: Long,
    val warmUps: Int,
    input: Long => ExplCube,
    cfg: TSConfig,
    referenceCfg: TSConfig,
) extends Workload {
  private var cube: ExplCube = _

  def setUp(seed: Long): Unit = cube = input(seed)

  def query(): Output = {
    val r = TSExplain.explain(cube, cfg)
    Output(r.cube, r.explanation, Benches.renderCanonical(r.cube, r.explanation))
  }

  def tracedQuery(tr: Tracer): Output = TracedExplain.run(cube, cfg, tr)

  def reference(): Answer = {
    val r = TSExplain.explain(cube, referenceCfg)
    Answer.of(r.cube, r.explanation)
  }
}

/** A relation cached in Spark: each query builds the explanation cube with
  * the Catalyst `CUBE` aggregation, then explains and renders it. The
  * reference explains the simulator's driver-side cube of the same seed.
  */
final class RelationWorkload(
    val name: String,
    val defaultSeed: Long,
    val warmUps: Int,
    relation: (SparkSession, Long) => DataFrame,
    attrs: Seq[String],
    driverCube: Long => ExplCube,
    cfg: TSConfig,
) extends Workload {
  private var spark: SparkSession = _
  private var df: DataFrame = _
  private var seed = 0L
  private lazy val probe = new SparkCubeProbe(spark)

  def setUp(seed: Long): Unit = {
    this.seed = seed
    spark = Workloads.session(name)
    df = relation(spark, seed).cache()
    df.count()
  }

  private def build(): ExplCube = ExplanationCube.build(df, "t", attrs, "m", maxOrder = cfg.maxOrder)

  def query(): Output = {
    val r = TSExplain.explain(build(), cfg)
    Output(r.cube, r.explanation, Benches.renderCanonical(r.cube, r.explanation))
  }

  def tracedQuery(tr: Tracer): Output = {
    val (cube, counts) = probe.measure(tr.span(Layer.SparkCube)(build()))
    tr.counters ++= counts
    tr.counters("sparkCube.eps") = cube.epsilon
    TracedExplain.run(cube, cfg, tr)
  }

  def reference(): Answer = {
    val r = TSExplain.explain(driverCube(seed), cfg)
    Answer.of(r.cube, r.explanation)
  }

  override def close(): Unit = if (spark != null) spark.stop()
}

object Workloads {

  /** At most four Spark cores, fewer on a smaller machine. */
  val sparkCores: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  /** The session the spark-submit entrypoints build, on `local[sparkCores]`. */
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(s"local[$sparkCores]")
      .appName(s"perfbench-$name")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  /** Table 5's configuration: support filter and O1. */
  private val liquorCfg = TSConfig(filterRatio = Some(0.001), guessVerify = true)
  /** Figure 17's optimized configuration: support filter, O1 and O2. */
  private val syntheticCfg = TSConfig(filterRatio = Some(0.001)).withAllOpts

  val all: Vector[Workload] = Vector(
    new CubeWorkload("liquor", 11L, 2,
      seed => RealWorldSim.liquor(seed).cube,
      liquorCfg, liquorCfg.copy(guessVerify = false)),
    new CubeWorkload("synthetic", 2034L, 3,
      seed => SyntheticGen.generate(n = 800, snrDb = 35, seed = seed).cube,
      syntheticCfg, syntheticCfg.copy(guessVerify = false)),
    // Table 3's configuration; the relation has 50 rows per simulated record.
    new RelationWorkload("covid-relation", 42L, 2,
      (spark, seed) => SynthData.covidDaily(spark, rowsPerRecord = 50, seed = seed),
      Seq("state"),
      seed => RealWorldSim.covidDaily(seed).cube,
      TSConfig(smoothWindow = Some(5))),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (one of ${all.map(_.name).mkString(", ")})"))
}
