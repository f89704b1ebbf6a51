package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import scala.jdk.CollectionConverters._

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  /** Rows as comparable cells, sorted: doubles (and decimals) as `Double`,
    * everything else as its string, columns in name order.
    */
  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[Any]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    val byCell: Ordering[Any] = (a, b) => (a, b) match {
      case (x: Double, y: Double) => java.lang.Double.compare(x, y)
      case _                      => a.toString.compareTo(b.toString)
    }
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                     => "∅"
          case d: Double                => d
          case f: Float                 => f.toDouble
          case bd: java.math.BigDecimal => bd.doubleValue
          case x                        => x.toString
        }
      })
      .sorted(Ordering.Implicits.seqOrdering[Seq, Any](byCell))
  }

  /** Unit roundoff of a double, 2⁻⁵³. */
  private val U = math.ulp(1.0) / 2

  /** Two engines summing the same `n` doubles in different orders each err
    * by at most about n·u·Σ|x|, and Σ|x| is the sum itself when the summands
    * share a sign; numbers within twice that bound agree.
    */
  private def sameCell(a: Any, b: Any, n: Long): Boolean = (a, b) match {
    case (x: Double, y: Double) =>
      val bound = 2 * n * U * math.max(math.abs(x), math.abs(y))
      java.lang.Double.compare(x, y) == 0 || math.abs(x - y) <= bound
    case _ => a == b
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      var inputRows = 0L
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        val rows = df.collect()
        inputRows += rows.length
        rows.foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      val mismatched = got.zip(exp).filterNot { case (g, e) =>
        g.zip(e).forall { case (a, b) => sameCell(a, b, inputRows) }
      }
      require(got.size == exp.size && mismatched.isEmpty,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first differing (spark, duckdb) rows: ${mismatched.take(3)}"
      )
    } finally conn.close()
  }
}
