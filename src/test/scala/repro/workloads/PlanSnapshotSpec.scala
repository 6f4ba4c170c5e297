package repro.workloads

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files

import repro.SparkSpec

/** Every statistics-free workload plan equals its checked-in rendering
  * ([[PlanSnapshot]]), so a plan change shows up as a reviewed diff of
  * `src/test/resources/plans.txt`. GHD-path queries are not in it: their
  * decomposition reads collected statistics.
  */
class PlanSnapshotSpec extends SparkSpec {

  test("workload plans match the checked-in snapshot") {
    val want = new String(Files.readAllBytes(PlanSnapshot.file), UTF_8).linesIterator.toVector
    val got = PlanSnapshot.render(spark).linesIterator.toVector
    val firstDiff = got.zipAll(want, "<end>", "<end>").indexWhere { case (g, w) => g != w }
    assert(firstDiff < 0,
      s"plans differ from ${PlanSnapshot.file} at line ${firstDiff + 1}: " +
        s"got '${got.lift(firstDiff).getOrElse("<end>")}', " +
        s"want '${want.lift(firstDiff).getOrElse("<end>")}' — after a deliberate plan change, " +
        """regenerate it with sbt "Test/runMain repro.workloads.PlanSnapshot"""")
  }
}
