package repro.nexmark

import repro.core._
import scala.collection.mutable

/** NEXMark queries Q1–Q8 implemented against Megaphone's stateful operator
  * interface (§4.1): each query is a [[BinLogic]] (the `fold` of Listing 1)
  * plus a one- or two-stage dataflow assembly. State isolation and pending
  * (post-dated) records are handled by the engine's bins and notificator —
  * the code here only expresses query logic, which is why several queries
  * are *shorter* than their hand-tuned native counterparts (Table 1).
  *
  * `// QN-megaphone-begin/end` markers delimit the lines counted in Table 1.
  */
object MegaphoneQueries {

  /** Union input for two-input operators (§3.4: "Operators with multiple
    * data inputs can be treated like single-input operators").
    */
  sealed trait In
  final case class PersonIn(p: Person)   extends In
  final case class AuctionIn(a: Auction) extends In
  final case class BidIn(b: Bid)         extends In
  final case class CloseIn(a: Auction)   extends In // post-dated self-record

  type Out = Product

  // Q1-megaphone-begin
  /** Q1: currency conversion — stateless map over bids. */
  final class Q1Logic extends BinLogic[Long, In, Out] {
    type St = Unit
    def init(key: Long): Unit = ()
    def fold(t: Long, rec: Rec[Long, In], st: Unit, out: Out => Unit, notify: (Long, Rec[Long, In]) => Unit): Unit =
      rec.value match {
        case BidIn(b) => out((b.auction, b.bidder, b.price * 908L / 1000L))
        case _        => ()
      }
  }
  // Q1-megaphone-end

  // Q2-megaphone-begin
  /** Q2: selection — bids whose auction id matches a set of values. */
  final class Q2Logic extends BinLogic[Long, In, Out] {
    type St = Unit
    def init(key: Long): Unit = ()
    def fold(t: Long, rec: Rec[Long, In], st: Unit, out: Out => Unit, notify: (Long, Rec[Long, In]) => Unit): Unit =
      rec.value match {
        case BidIn(b) if b.auction % 123 == 0 => out((b.auction, b.price))
        case _                                => ()
      }
  }
  // Q2-megaphone-end

  // Q3-megaphone-begin
  /** Q3: incremental join of persons (OR/ID/CA) and auctions (category 10),
    * keyed by person id == seller id.
    */
  final class Q3Logic extends BinLogic[Long, In, Out] {
    final case class PA(var person: Option[Person], auctions: mutable.ArrayBuffer[Auction])
    type St = PA
    def init(key: Long): PA = PA(None, mutable.ArrayBuffer.empty)
    def fold(t: Long, rec: Rec[Long, In], st: PA, out: Out => Unit, notify: (Long, Rec[Long, In]) => Unit): PA = {
      rec.value match {
        case PersonIn(p) if Events.Q3States(p.state) =>
          st.person = Some(p)
          st.auctions.foreach(a => out((p.name, p.city, p.state, a.id)))
        case AuctionIn(a) if a.category == 10 =>
          st.auctions += a
          st.person.foreach(p => out((p.name, p.city, p.state, a.id)))
        case _ => ()
      }
      st
    }
    override def stateBytes(st: PA): Long = 150L + 120L * st.auctions.size
  }
  // Q3-megaphone-end

  // Q4-megaphone-begin
  /** Q4 stage 1: detect closed auctions and their winning bid, keyed by
    * auction id; the close is a post-dated record via the notificator.
    */
  final class CloseLogic(emitSeller: Boolean) extends BinLogic[Long, In, Out] {
    final case class AB(var auction: Option[Auction], var best: Long)
    type St = AB
    def init(key: Long): AB = AB(None, 0L)
    def fold(t: Long, rec: Rec[Long, In], st: AB, out: Out => Unit, notify: (Long, Rec[Long, In]) => Unit): AB = {
      rec.value match {
        case AuctionIn(a) =>
          st.auction = Some(a)
          notify(a.expires, rec.copy(value = CloseIn(a)))
        case BidIn(b) =>
          if (st.auction.forall(a => b.time <= a.expires) && b.price > st.best) st.best = b.price
        case CloseIn(a) =>
          if (st.best > 0) out(if (emitSeller) (a.seller, st.best) else (a.category.toLong, st.best))
          st.auction = None; st.best = 0L
        case _ => ()
      }
      st
    }
    override def stateBytes(st: AB): Long = 150L
  }

  /** Q4 stage 2: running average of closing prices per category. */
  final class AvgLogic extends BinLogic[Long, (Long, Long), Out] {
    type St = (Long, Long) // (sum, count)
    def init(key: Long): (Long, Long) = (0L, 0L)
    def fold(t: Long, rec: Rec[Long, (Long, Long)], st: (Long, Long), out: Out => Unit, notify: (Long, Rec[Long, (Long, Long)]) => Unit): (Long, Long) = {
      val st2 = (st._1 + rec.value._2, st._2 + 1)
      out((rec.key, st2._1 / st2._2))
      st2
    }
  }
  // Q4-megaphone-end

  // Q5-megaphone-begin
  /** Q5 stage 1: per-auction bid counts over a sliding window; retractions
    * are post-dated records handled by the notificator.
    */
  final class HotLogic(windowNs: Long) extends BinLogic[Long, In, Out] {
    type St = Long // current in-window count
    def init(key: Long): Long = 0L
    def fold(t: Long, rec: Rec[Long, In], st: Long, out: Out => Unit, notify: (Long, Rec[Long, In]) => Unit): Long =
      rec.value match {
        case BidIn(b) =>
          notify(t + windowNs, rec.copy(value = CloseIn(null))) // retraction
          out((rec.key, st + 1)); st + 1
        case CloseIn(_) =>
          out((rec.key, st - 1)); st - 1
        case _ => st
      }
  }

  /** Q5 stage 2: global maximum over current per-auction counts. */
  final class MaxCountLogic extends BinLogic[Long, (Long, Long), Out] {
    final case class MC(counts: mutable.LongMap[Long], var maxA: Long, var maxC: Long)
    type St = MC
    def init(key: Long): MC = MC(mutable.LongMap.empty, -1L, 0L)
    def fold(t: Long, rec: Rec[Long, (Long, Long)], st: MC, out: Out => Unit, notify: (Long, Rec[Long, (Long, Long)]) => Unit): MC = {
      val (a, c) = rec.value
      if (c <= 0) st.counts.remove(a) else st.counts(a) = c
      if (c > st.maxC) { st.maxA = a; st.maxC = c; out((a, c)) }
      else if (a == st.maxA && c < st.maxC) {
        // Deterministic tie-break: highest count, then lowest auction id.
        val (ma, mc) =
          if (st.counts.isEmpty) (-1L, 0L) else st.counts.maxBy { case (k, v) => (v, -k) }
        st.maxA = ma; st.maxC = mc; out((ma, mc))
      }
      st
    }
  }
  // Q5-megaphone-end

  // Q6-megaphone-begin
  /** Q6 stage 2: average of the last ten closing prices per seller (stage 1
    * is the shared CloseLogic emitting (seller, price), as in the paper where
    * Q4 and Q6 share "a large fraction of the query plan").
    */
  final class Last10Logic extends BinLogic[Long, (Long, Long), Out] {
    type St = mutable.Queue[Long]
    def init(key: Long): St = mutable.Queue.empty
    def fold(t: Long, rec: Rec[Long, (Long, Long)], st: St, out: Out => Unit, notify: (Long, Rec[Long, (Long, Long)]) => Unit): St = {
      st.enqueue(rec.value._2)
      if (st.size > 10) st.dequeue()
      out((rec.key, st.sum / st.size))
      st
    }
    override def stateBytes(st: St): Long = 120L + 8L * st.size
  }
  // Q6-megaphone-end

  // Q7-megaphone-begin
  /** Q7: highest bid per tumbling window, keyed by window id; the report is
    * a post-dated record at the window boundary.
    */
  final class MaxBidLogic(windowNs: Long) extends BinLogic[Long, In, Out] {
    final case class MB(var price: Long, var bidder: Long, var auction: Long, var armed: Boolean)
    type St = MB
    def init(key: Long): MB = MB(0L, -1L, -1L, false)
    def fold(t: Long, rec: Rec[Long, In], st: MB, out: Out => Unit, notify: (Long, Rec[Long, In]) => Unit): MB = {
      rec.value match {
        case BidIn(b) =>
          if (!st.armed) { st.armed = true; notify((rec.key + 1) * windowNs, rec.copy(value = CloseIn(null))) }
          if (b.price > st.price) { st.price = b.price; st.bidder = b.bidder; st.auction = b.auction }
        case CloseIn(_) => out((rec.key, st.auction, st.bidder, st.price))
        case _          => ()
      }
      st
    }
  }
  // Q7-megaphone-end

  // Q8-megaphone-begin
  /** Q8: tumbling-window join of new persons and new auction sellers, keyed
    * by person id == seller id.
    */
  final class NewUsersLogic(windowNs: Long) extends BinLogic[Long, In, Out] {
    final case class W(var personWindow: Long, var emittedWindow: Long, sellerWindows: mutable.Set[Long])
    type St = W
    def init(key: Long): W = W(-1L, -1L, mutable.Set.empty)
    def fold(t: Long, rec: Rec[Long, In], st: W, out: Out => Unit, notify: (Long, Rec[Long, In]) => Unit): W = {
      val w = t / windowNs
      def report(id: Long): Unit =
        if (st.emittedWindow != w) { st.emittedWindow = w; out((id, w)) }
      rec.value match {
        case PersonIn(p) =>
          st.personWindow = w
          if (st.sellerWindows(w)) report(p.id)
        case AuctionIn(a) =>
          st.sellerWindows.filterInPlace(_ >= w)
          st.sellerWindows += w
          if (st.personWindow == w) report(a.seller)
        case _ => ()
      }
      st
    }
    override def stateBytes(st: W): Long = 80L + 16L * st.sellerWindows.size
  }
  // Q8-megaphone-end
}
