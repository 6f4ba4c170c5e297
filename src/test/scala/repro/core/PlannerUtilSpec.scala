package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Key-propagation algebra used by the rule-based optimizer. */
class PlannerUtilSpec extends AnyFunSuite {
  import PlannerUtil._

  test("projection keeps keys contained in the kept attrs") {
    val keys = Set(Set("a"), Set("b", "c"))
    assert(keysAfterProject(keys, Set("a", "b"), dedupe = false) == Set(Set("a")))
  }

  test("deduplicating projection adds the kept attrs as a key") {
    val got = keysAfterProject(Set.empty, Set("a", "b"), dedupe = true)
    assert(got == Set(Set("a", "b")))
  }

  test("join on a key of the right side preserves left keys") {
    val got = keysAfterJoin(
      Set("a", "x"), Set(Set("a")),
      Set("x", "y"), Set(Set("x")))
    assert(got.contains(Set("a")))
  }

  test("join not covered by any key only yields paired keys") {
    val got = keysAfterJoin(
      Set("a", "x"), Set(Set("a")),
      Set("x", "y"), Set(Set("y")))
    assert(!got.contains(Set("a")) && !got.contains(Set("y")))
    assert(got.contains(Set("a", "y")))
  }

  test("paired keys always hold") {
    val got = keysAfterJoin(Set("a", "x"), Set(Set("a")), Set("x"), Set(Set("x")))
    assert(got.contains(Set("a", "x")))
  }

  test("nodeFor exposes configured keys and completeness") {
    val cq = Fixtures.q4
    val cfg = RuleConfig.default.copy(uniqueKeys = Map("R2" -> Set(Set("x2"))))
    val n = nodeFor(cq, "R2", cfg, new Keys(cfg))
    assert(n.keys == Set(Set("x2")) && n.complete)
  }

  test("projectNode downgrades to pruning when a key survives") {
    val cq = Fixtures.q4
    val cfg = RuleConfig.default.copy(uniqueKeys = Map("R2" -> Set(Set("x2"))))
    val n = nodeFor(cq, "R2", cfg, new Keys(cfg))
    projectNode(cq, cfg, n, Vector("x2"))
    assert(n.op.isInstanceOf[Project] && !n.op.asInstanceOf[Project].dedupe)
  }

  test("projectNode aggregates when no key survives") {
    val cq = Fixtures.q4
    val n = nodeFor(cq, "R2", RuleConfig.default, new Keys(RuleConfig.default))
    projectNode(cq, RuleConfig.default, n, Vector("x2"))
    assert(n.op.asInstanceOf[Project].dedupe)
    assert(n.keys.contains(Set("x2"))) // dedupe creates the key
  }
}
