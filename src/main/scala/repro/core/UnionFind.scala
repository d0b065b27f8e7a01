package repro.core

/** Union-find over record ids — the repository's one transitivity and
  * anti-transitivity structure. `union` records "same entity", and
  * `separate` records "different entities" between two components; a
  * separation holds for every later superset of either component. Used
  * by CMR's merge hierarchy, the pairwise/BQ/CrowdER baselines'
  * combining phase, Booster's candidate partitions and
  * `Blocking.componentsCapped`'s block merging for every strategy.
  */
final class UnionFind(ids: Iterable[Long]) {
  private val parent = scala.collection.mutable.Map.empty[Long, Long]
  private val rank   = scala.collection.mutable.Map.empty[Long, Int]
  /** Root → the roots it is known to be apart from (symmetric, roots only). */
  private val apart  = scala.collection.mutable.Map.empty[Long, scala.collection.mutable.Set[Long]]
  ids.foreach { id => parent(id) = id; rank(id) = 0 }

  def find(x: Long): Long = {
    var root = x
    while (parent(root) != root) root = parent(root)
    var cur = x
    while (parent(cur) != root) { val nxt = parent(cur); parent(cur) = root; cur = nxt }
    root
  }

  def union(a: Long, b: Long): Unit = {
    val ra = find(a); val rb = find(b)
    if (ra != rb) {
      if (rank(ra) < rank(rb)) relink(ra, rb)
      else if (rank(ra) > rank(rb)) relink(rb, ra)
      else { relink(rb, ra); rank(ra) = rank(ra) + 1 }
    }
  }

  /** Hang `child` under `root` and re-key `child`'s separations to
    * `root`. A separation between the two is dropped: it no longer
    * separates anything.
    */
  private def relink(child: Long, root: Long): Unit = {
    parent(child) = root
    apart.remove(child).foreach { theirs =>
      theirs -= root
      val ours = apart.getOrElseUpdate(root, scala.collection.mutable.Set.empty)
      ours -= child
      theirs.foreach { c => apart(c) -= child; apart(c) += root; ours += c }
    }
  }

  def connected(a: Long, b: Long): Boolean = find(a) == find(b)

  /** Record that the components of `a` and `b` are different entities.
    * A no-op when they are already one component.
    */
  def separate(a: Long, b: Long): Unit = {
    val ra = find(a); val rb = find(b)
    if (ra != rb) {
      apart.getOrElseUpdate(ra, scala.collection.mutable.Set.empty) += rb
      apart.getOrElseUpdate(rb, scala.collection.mutable.Set.empty) += ra
    }
  }

  /** Are the components of `a` and `b` known to be different entities? */
  def separated(a: Long, b: Long): Boolean = {
    val ra = find(a); val rb = find(b)
    ra != rb && apart.get(ra).exists(_.contains(rb))
  }

  /** Current partition as a set of clusters. */
  def partition: Vector[Set[Long]] =
    parent.keys.groupBy(find).values.map(_.toSet).toVector
}
