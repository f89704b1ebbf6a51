package repro.cube

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.{CatalystTypeConverters, InternalRow}
import org.apache.spark.sql.catalyst.expressions.{BoundReference, RowOrdering, UnsafeProjection, UnsafeRow}
import org.apache.spark.sql.catalyst.util.CollationFactory
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.array.ByteArrayMethods
import org.apache.spark.unsafe.hash.Murmur3_x86_32
import org.apache.spark.unsafe.types.UTF8String
import scala.collection.mutable.ArrayBuffer
import repro.core.{Expl, ExplCube}

/** Spark-side precomputation (Section 5.2, module a): the data cube of every
  * candidate explanation's series, in one Spark stage.
  *
  * Each task sums its partition into one table per grouping set (T, S),
  * 1 ≤ |S| ≤ β̄, plus the total per timestamp, keyed by small integer codes
  * of T's and the attributes' values; the driver merges the tasks' tables in
  * slice order into the in-memory [[ExplCube]], so the relation is read once,
  * nothing is shuffled and a build is deterministic. The measure is cast to
  * double before it is summed.
  */
object ExplanationCube {

  /** Build the [[ExplCube]] of `df`: the time axis is T's distinct values in
    * Spark's ordering of T's type, and each explanation's series holds, per
    * timestamp, the SUM of M over its rows. Timestamps absent from an
    * explanation's slice, and slices whose measures are all null, contribute 0.
    *
    * A null explain-by value counts as a missing attribute, as in
    * [[ExplCube.fromRecords]]: the row counts toward the total and toward
    * the conjunctions over its non-null attributes, and no `attr=null`
    * explanation is made. A null time value is an `IllegalArgumentException`.
    */
  def build(
      df: DataFrame,
      timeCol: String,
      attrs: Seq[String],
      measureCol: String,
      maxOrder: Int = 3,
  ): ExplCube = {
    require(attrs.nonEmpty, "at least one explain-by attribute")
    require(maxOrder >= 0, s"maxOrder must be non-negative, got $maxOrder")
    val k = attrs.size
    val scan = df.select(col(timeCol) +: attrs.map(col) :+ col(measureCol).cast(DoubleType): _*)
      .coalesce(df.sparkSession.sparkContext.defaultParallelism)
    val types = scan.schema.fields.init.map(_.dataType)
    val sets = GroupingSets(k, maxOrder)
    val qe = scan.queryExecution
    // An execution id makes the job a SQL execution, so query listeners see the scan.
    val parts = SQLExecution.withNewExecutionId(qe, Some("explanation cube")) {
      qe.toRdd.mapPartitions(rows => Iterator(Partial.of(rows, types, sets))).collect()
    }
    if (parts.exists(_.nullTime))
      throw new IllegalArgumentException(s"time column '$timeCol' has null values")
    merge(parts, types, sets, attrs)
  }

  /** The grouping sets, parents first: set 0 is the empty set (the total),
    * and set s ≥ 1 extends set `parent(s)` by attribute `last(s)`, so its
    * groups are keyed by (group in the parent, code of the new value).
    */
  private final case class GroupingSets(parent: Array[Int], last: Array[Int]) {
    def size: Int = parent.length
  }

  private object GroupingSets {
    def apply(k: Int, maxOrder: Int): GroupingSets = {
      val byOrder = (0 to math.min(maxOrder, k)).map(o => (0 until k).combinations(o).toVector)
      val all = byOrder.flatten
      val index = all.zipWithIndex.toMap
      GroupingSets(all.map(s => if (s.isEmpty) -1 else index(s.init)).toArray,
        all.map(s => if (s.isEmpty) -1 else s.last).toArray)
    }
  }

  /** One task's tables. `keys(c)` are column c's distinct values in code
    * order (T is column 0); `groups(s)` holds set s's group keys, (parent
    * group << 32) | value code, in group order; `sums(s)` each group's SUM.
    * Set 0's groups are the time codes themselves, so `groups(0)` is empty.
    */
  private final class Partial(
      val nullTime: Boolean,
      val keys: Array[Keys],
      val groups: Array[Array[Long]],
      val sums: Array[Array[Double]],
  ) extends Serializable

  private object Partial {
    def of(rows: Iterator[InternalRow], types: Array[DataType], sets: GroupingSets): Partial = {
      val k = types.length - 1
      val dicts = types.map(Dict(_))
      val tables = Array.fill(sets.size)(new LongIds)
      val sums = Array.fill(sets.size)(new Array[Double](64))
      val codes = new Array[Int](k + 1)
      val gid = new Array[Int](sets.size)
      var nullTime = false
      while (rows.hasNext) {
        val r = rows.next()
        if (r.isNullAt(0)) nullTime = true
        else {
          var c = 0
          while (c <= k) { codes(c) = dicts(c).code(r, c); c += 1 }
          val m = if (r.isNullAt(k + 1)) 0.0 else r.getDouble(k + 1)
          var s = 0
          while (s < sets.size) {
            val g =
              if (s == 0) codes(0)
              else {
                val p = gid(sets.parent(s))
                val v = codes(1 + sets.last(s))
                if (p < 0 || v < 0) -1 else tables(s).idOf((p.toLong << 32) | v)
              }
            gid(s) = g
            if (g >= 0) {
              if (g == sums(s).length) sums(s) = java.util.Arrays.copyOf(sums(s), 2 * g)
              sums(s)(g) += m
            }
            s += 1
          }
        }
      }
      new Partial(nullTime, dicts.map(_.keys), tables.map(t => t.keys.take(t.size)),
        Array.tabulate(sets.size)(s => java.util.Arrays.copyOf(sums(s), if (s == 0) dicts(0).size else tables(s).size)))
    }
  }

  /** Order the time axis, then add each task's groups, in slice order, into
    * one series per conjunction: a group's timestamp and conjunction follow
    * from its parent group's and its own value, set by set.
    */
  private def merge(parts: Array[Partial], types: Array[DataType], sets: GroupingSets, attrs: Seq[String]): ExplCube = {
    val k = attrs.size
    val dicts = types.map(Dict(_))
    val codes = parts.map(part => Array.tabulate(k + 1)(c => dicts(c).codesOf(part.keys(c))))

    // The time axis: T's distinct values in the order Spark's own sort on T's type gives.
    val timeOrder = RowOrdering.createNaturalAscendingOrdering(Seq(types(0)))
    val timeValues = dicts(0).values
    val sorted = timeValues.indices.sortBy(c => InternalRow(timeValues(c)))(timeOrder)
    val n = sorted.size
    val pos = new Array[Int](n)
    for ((c, t) <- sorted.zipWithIndex) pos(c) = t
    val labels = Array.tabulate(k + 1) { c =>
      val toScala = CatalystTypeConverters.createToScalaConverter(types(c))
      dicts(c).values.map(v => toScala(v).toString)
    }

    // Per set, each conjunction's id by (parent conjunction << 32) | value
    // code, its predicates and its series; set 0's one conjunction is the total.
    val conjs = Array.fill(sets.size)(new LongIds)
    val preds = Array.fill(sets.size)(ArrayBuffer.empty[List[(String, String)]])
    val series = Array.fill(sets.size)(ArrayBuffer.empty[Array[Double]])
    preds(0) += Nil
    series(0) += new Array[Double](n)
    for ((part, code) <- parts.zip(codes)) {
      val timeOf = new Array[Array[Int]](sets.size)
      val conjOf = new Array[Array[Int]](sets.size)
      timeOf(0) = code(0).map(pos)
      conjOf(0) = new Array[Int](code(0).length)
      for (s <- 1 until sets.size) {
        val (p, a) = (sets.parent(s), sets.last(s))
        val groups = part.groups(s)
        timeOf(s) = groups.map(key => timeOf(p)((key >>> 32).toInt))
        conjOf(s) = groups.map { key =>
          val pc = conjOf(p)((key >>> 32).toInt)
          val vc = code(1 + a)(key.toInt)
          val id = conjs(s).idOf((pc.toLong << 32) | vc)
          if (id == preds(s).size) {
            preds(s) += (attrs(a) -> labels(1 + a)(vc)) :: preds(p)(pc)
            series(s) += new Array[Double](n)
          }
          id
        }
      }
      for (s <- 0 until sets.size; (sum, g) <- part.sums(s).zipWithIndex)
        series(s)(conjOf(s)(g))(timeOf(s)(g)) += sum
    }
    val perExpl = for (s <- 1 until sets.size; (ps, xs) <- preds(s).zip(series(s))) yield Expl.of(ps: _*) -> xs
    ExplCube.fromSeries(attrs, sorted.map(labels(0)(_)).toVector, series(0)(0), perExpl)
  }

  /** Ids of distinct longs in first-sight order: an open-addressing table,
    * with the keys also kept in id order.
    */
  private final class LongIds {
    private var slots = new Array[Long](64)
    private var ids = Array.fill(64)(-1)
    var keys = new Array[Long](32)
    var size = 0

    def idOf(key: Long): Int = {
      var i = slot(key, ids.length - 1)
      while (ids(i) >= 0) {
        if (slots(i) == key) return ids(i)
        i = (i + 1) & (ids.length - 1)
      }
      if (size == keys.length) keys = java.util.Arrays.copyOf(keys, 2 * size)
      keys(size) = key
      slots(i) = key
      ids(i) = size
      size += 1
      if (2 * size > ids.length) grow()
      size - 1
    }

    private def slot(key: Long, mask: Int): Int = {
      val h = key * 0x9E3779B97F4A7C15L
      (h ^ (h >>> 32)).toInt & mask
    }

    private def grow(): Unit = {
      val cap = 2 * ids.length
      slots = new Array[Long](cap)
      ids = Array.fill(cap)(-1)
      for (id <- 0 until size) {
        var i = slot(keys(id), cap - 1)
        while (ids(i) >= 0) i = (i + 1) & (cap - 1)
        slots(i) = keys(id)
        ids(i) = id
      }
    }
  }

  /** A column's distinct values in code order, as a task ships them: the
    * keys of a [[LongDict]], or the keys and values of a [[BytesDict]].
    */
  private final case class Keys(longs: Array[Long], bytes: Array[UTF8String], values: Array[AnyRef])

  /** Codes of one column's distinct values, in first-sight order; −1 for null.
    * Values are keyed as Spark groups them: integral, date and timestamp
    * values by their long, floating-point values with −0.0 and every NaN
    * folded, strings by their collation key and anything else by its
    * unsafe encoding.
    */
  private sealed trait Dict {
    def code(r: InternalRow, ordinal: Int): Int
    def size: Int
    def keys: Keys
    /** A task's codes in this dictionary, by the task's code, adding its new values. */
    def codesOf(task: Keys): Array[Int]
    /** Each code's Catalyst value. */
    def values: IndexedSeq[Any]
  }

  private object Dict {
    def apply(dt: DataType): Dict = dt match {
      case BooleanType | ByteType | ShortType | IntegerType | DateType | _: YearMonthIntervalType |
          LongType | TimestampType | TimestampNTZType | _: DayTimeIntervalType | FloatType | DoubleType =>
        new LongDict(dt)
      case st: StringType if CollationFactory.fetchCollation(st.collationId).supportsBinaryEquality =>
        new BytesDict(inPlace = true, (r, o) => r.getUTF8String(o), (r, o) => r.getUTF8String(o).clone())
      case st: StringType =>
        new BytesDict(inPlace = false, (r, o) => CollationFactory.getCollationKey(r.getUTF8String(o), st.collationId),
          (r, o) => r.getUTF8String(o).clone())
      case _ =>
        lazy val encode = UnsafeProjection.create(Seq(BoundReference(0, dt, nullable = false)))
        new BytesDict(inPlace = false, (r, o) => {
          val e = encode(InternalRow(r.get(o, dt)))
          UTF8String.fromAddress(e.getBaseObject, e.getBaseOffset, e.getSizeInBytes)
        }, (r, o) => InternalRow.copyValue(r.get(o, dt)).asInstanceOf[AnyRef])
    }
  }

  /** Values whose Catalyst form is a primitive, keyed by their bits as a long. */
  private final class LongDict(dt: DataType) extends Dict {
    private val ids = new LongIds
    private val kind = dt match {
      case BooleanType => 0
      case ByteType => 1
      case ShortType => 2
      case IntegerType | DateType | _: YearMonthIntervalType => 3
      case FloatType => 4
      case DoubleType => 5
      case _ => 6
    }
    def code(r: InternalRow, ordinal: Int): Int =
      if (r.isNullAt(ordinal)) -1
      else ids.idOf(kind match {
        case 0 => if (r.getBoolean(ordinal)) 1L else 0L
        case 1 => r.getByte(ordinal).toLong
        case 2 => r.getShort(ordinal).toLong
        case 3 => r.getInt(ordinal).toLong
        // Adding +0.0 folds −0.0 into 0.0, and the bits of every NaN are the same.
        case 4 => java.lang.Float.floatToIntBits(r.getFloat(ordinal) + 0.0f).toLong
        case 5 => java.lang.Double.doubleToLongBits(r.getDouble(ordinal) + 0.0)
        case _ => r.getLong(ordinal)
      })
    def size: Int = ids.size
    def keys: Keys = Keys(ids.keys.take(ids.size), null, null)
    def codesOf(task: Keys): Array[Int] = task.longs.map(ids.idOf)
    def values: IndexedSeq[Any] = ids.keys.take(ids.size).toIndexedSeq.map { b =>
      kind match {
        case 0 => b != 0L
        case 1 => b.toByte
        case 2 => b.toShort
        case 3 => b.toInt
        case 4 => java.lang.Float.intBitsToFloat(b.toInt)
        case 5 => java.lang.Double.longBitsToDouble(b)
        case _ => b
      }
    }
  }

  /** Values keyed by bytes, in an open-addressing table of codes probed by
    * the bytes' hash: `key` gives the row's key bytes, and `value` a copy of
    * its value that outlives the row, which the scan reuses. With `inPlace`,
    * the key is the string itself and an [[UnsafeRow]]'s bytes are probed
    * where they lie, so a row allocates nothing.
    */
  private final class BytesDict(
      inPlace: Boolean,
      key: (InternalRow, Int) => UTF8String,
      value: (InternalRow, Int) => AnyRef,
  ) extends Dict {
    private var slots = Array.fill(64)(-1)
    private val keyList = ArrayBuffer.empty[UTF8String]
    private val valueList = ArrayBuffer.empty[AnyRef]

    def code(r: InternalRow, ordinal: Int): Int =
      if (r.isNullAt(ordinal)) -1
      else {
        val i = r match {
          case u: UnsafeRow if inPlace =>
            // A variable-length field holds its offset in the row and its size.
            val offsetAndSize = u.getLong(ordinal)
            slot(u.getBaseObject, u.getBaseOffset + (offsetAndSize >> 32), offsetAndSize.toInt)
          case _ =>
            val k = key(r, ordinal)
            slot(k.getBaseObject, k.getBaseOffset, k.numBytes)
        }
        if (slots(i) >= 0) slots(i) else add(i, key(r, ordinal).clone(), value(r, ordinal))
      }

    /** The slot of the key in `size` bytes at `offset` of `base`: its code's, or the empty one it would take. */
    private def slot(base: AnyRef, offset: Long, size: Int): Int = {
      val mask = slots.length - 1
      var i = Murmur3_x86_32.hashUnsafeBytes(base, offset, size, 42) & mask
      while (slots(i) >= 0 && !same(keyList(slots(i)), base, offset, size)) i = (i + 1) & mask
      i
    }

    private def same(k: UTF8String, base: AnyRef, offset: Long, size: Int): Boolean =
      k.numBytes == size && ByteArrayMethods.arrayEquals(k.getBaseObject, k.getBaseOffset, base, offset, size)

    private def add(i: Int, k: UTF8String, v: AnyRef): Int = {
      slots(i) = keyList.size
      keyList += k
      valueList += v
      if (2 * keyList.size > slots.length) {
        slots = Array.fill(2 * slots.length)(-1)
        for ((s, c) <- keyList.zipWithIndex) slots(slot(s.getBaseObject, s.getBaseOffset, s.numBytes)) = c
      }
      keyList.size - 1
    }

    def size: Int = keyList.size
    def keys: Keys = Keys(null, keyList.toArray, valueList.toArray)
    def codesOf(task: Keys): Array[Int] = Array.tabulate(task.bytes.length) { c =>
      val k = task.bytes(c)
      val i = slot(k.getBaseObject, k.getBaseOffset, k.numBytes)
      if (slots(i) >= 0) slots(i) else add(i, k, task.values(c))
    }
    def values: IndexedSeq[Any] = valueList.toIndexedSeq
  }
}
