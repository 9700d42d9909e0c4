package repro.nexmark

/** NEXMark auction-site events (persons, auctions, bids).
  *
  * Deterministic reimplementation of the reference generator's essentials:
  * the standard 1:3:46 person/auction/bid mix per 50 events, monotone ids,
  * bids on recently opened auctions, auctions with bounded lifetimes so the
  * number of active auctions is roughly constant (§5.1: "the number of
  * active auctions is static"). All times are simulated nanoseconds.
  */
sealed trait Event { def time: Long }

final case class Person(id: Long, name: String, city: String, state: String, time: Long)  extends Event
final case class Auction(id: Long, seller: Long, category: Int, expires: Long, time: Long) extends Event
final case class Bid(auction: Long, bidder: Long, price: Long, time: Long)                 extends Event

object Events {
  val UsStates = Vector("OR", "ID", "CA", "WA", "NV", "AZ", "UT", "MT")
  val Cities   = Vector("Portland", "Boise", "SF", "Seattle", "Reno", "Phoenix", "Provo", "Helena")
  val NumCategories = 10

  /** Fraction of persons in the Q3 states OR/ID/CA is 3/8 by construction. */
  val Q3States = Set("OR", "ID", "CA")
}

/** Deterministic event stream: `epoch(e)` returns the events of epoch `e`
  * with timestamps equal to the epoch start. Auction lifetime is
  * `auctionLifeNs` (already "dilated" — callers pick window-friendly values).
  */
final class EventGen(
    val epochNs: Long,
    val eventsPerEpoch: Int,
    val auctionLifeNs: Long,
    seed: Long = 1L,
) {
  private val rng            = new scala.util.Random(seed)
  private var nextPersonId   = 0L
  private var nextAuctionId  = 0L
  private var emitted        = 0L
  private var generatedUpTo  = 0L // next epoch to generate

  /** Events of epoch `e`; must be called with consecutive e starting at 0. */
  def epoch(e: Long): Seq[Event] = {
    require(e == generatedUpTo, s"epochs must be generated in order (got $e, expected $generatedUpTo)")
    generatedUpTo += 1
    val t   = e * epochNs
    val out = Vector.newBuilder[Event]
    var i   = 0
    while (i < eventsPerEpoch) {
      val slot = emitted % 50
      if (slot == 0) {
        val id = nextPersonId; nextPersonId += 1
        val s  = (id % Events.UsStates.size).toInt
        out += Person(id, s"person-$id", Events.Cities(s), Events.UsStates(s), t)
      } else if (slot <= 3) {
        val id     = nextAuctionId; nextAuctionId += 1
        val seller = if (nextPersonId == 0) 0L else rng.nextLong(nextPersonId)
        // Per-auction lifetime jitter in [life/2, life): distinct expiry
        // times keep close-ordering deterministic across implementations.
        val half    = math.max(1L, auctionLifeNs / 2)
        val expires = t + half + (id * 2654435761L % half + half) % half
        out += Auction(id, seller, 1 + rng.nextInt(Events.NumCategories), expires, t)
      } else {
        // Bid on a recently opened auction (it may already have expired —
        // query logic must handle late bids, as in the reference generator).
        val lo      = math.max(0L, nextAuctionId - 100)
        val auction = if (nextAuctionId == 0) 0L else lo + rng.nextLong(nextAuctionId - lo)
        val bidder  = if (nextPersonId == 0) 0L else rng.nextLong(nextPersonId)
        out += Bid(auction, bidder, 100L + rng.nextInt(10_000), t)
      }
      emitted += 1
      i += 1
    }
    out.result()
  }

  /** All events of the first `epochs` epochs (for oracle checks). */
  def all(epochs: Int): Seq[Event] = (0L until epochs.toLong).flatMap(epoch)
}
