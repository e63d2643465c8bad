#include "net/event_queue.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace braidio::net {

namespace {
/// Largest time/width ratio the integer day counter can represent; far
/// beyond any simulated horizon, but a contract beats silent overflow.
constexpr double kMaxDays = 9.0e18;

/// Starting calendar: 64 days of 250 us (about one short frame each).
constexpr double kInitialWidthS = 250e-6;
constexpr std::size_t kInitialBuckets = 64;

/// Width re-tune probe: after this many inserts, check the window.
constexpr std::uint64_t kProbeInserts = 64;
/// Mean steps per insert (scan) or per pop (cursor) that trigger a
/// width re-tune.
constexpr std::uint64_t kMaxMeanSteps = 8;
/// Day-counter headroom kept when shrinking the width (days < 1e15).
constexpr double kWidthFloorDays = 1.0e15;
}  // namespace

EventQueue::EventQueue()
    : width_(kInitialWidthS),
      inv_width_(1.0 / kInitialWidthS),
      heads_(kInitialBuckets, kNoEvent) {}

EventId EventQueue::acquire() {
  if (free_head_ != kNoEvent) {
    const EventId id = free_head_;
    free_head_ = pool_[id].next;
    return id;
  }
  pool_.emplace_back();
  return static_cast<EventId>(pool_.size() - 1);
}

void EventQueue::release(EventId id) {
  pool_[id].next = free_head_;
  free_head_ = id;
}

std::uint64_t EventQueue::day_of(double time_s) const {
  // Multiplying by the stored reciprocal is monotone in time_s, and
  // every bucket and cursor decision goes through this one mapping.
  return static_cast<std::uint64_t>(time_s * inv_width_);
}

std::size_t EventQueue::bucket_of(std::uint64_t day) const {
  // The bucket count is 64 doubled k times: a mask, not a division.
  return static_cast<std::size_t>(day & (heads_.size() - 1));
}

void EventQueue::insert(EventId id) {
  const Event& ev = pool_[id];
  EventId* link = &heads_[bucket_of(day_of(ev.time_s))];
  while (*link != kNoEvent) {
    const Event& at = pool_[*link];
    if (ev.time_s < at.time_s ||
        (ev.time_s == at.time_s && ev.seq < at.seq)) {
      break;
    }
    link = &pool_[*link].next;
    ++probe_scan_steps_;
  }
  pool_[id].next = *link;
  *link = id;
}

double EventQueue::dequeue_gap() const {
  return probe_advances_ > 0 ? (now_s_ - probe_start_s_) /
                                   static_cast<double>(probe_advances_)
                             : gap_s_;
}

double EventQueue::probe_width() const {
  // Brown's rule: a day of about three mean dequeue gaps. The gap is the
  // clock advance over the window's clock-advancing pops (a burst of
  // simultaneous events needs no day of its own, so ties do not shrink
  // it); a window without such a pop, such as an insert burst at a TDMA
  // round start, reuses the last window's gap, since inserting changes
  // the queue's contents but not its dequeue rate. Only before the
  // first measured gap (a bulk pre-fill) does the width fall back to
  // twice the live events' mean gap; every live time is in
  // [now_s_, max_sched_s_] because pops run in time order, so that span
  // is O(1).
  const double gap = dequeue_gap();
  const double width =
      gap > 0.0 ? 3.0 * gap
                : 2.0 * (max_sched_s_ - now_s_) / static_cast<double>(size_);
  // Floored so the integer day counter keeps ~1e15 days of headroom.
  return std::max(width, max_sched_s_ / kWidthFloorDays);
}

void EventQueue::close_probe() {
  gap_s_ = dequeue_gap();
  scan_total_ += probe_scan_steps_;
  cursor_total_ += probe_cursor_steps_;
  probe_inserts_ = 0;
  probe_scan_steps_ = 0;
  probe_pops_ = 0;
  probe_advances_ = 0;
  probe_cursor_steps_ = 0;
  probe_start_s_ = now_s_;
}

void EventQueue::maybe_grow() {
  const bool crowded = size_ > 2 * heads_.size();
  double new_width = width_;
  if (probe_inserts_ >= kProbeInserts) {
    // Long insert scans mean too many events per day; long cursor walks
    // mean too few. Either re-tunes toward probe_width(), but only in
    // the direction that relieves what the window saw, and only past a
    // 2x hysteresis so a borderline probe does not thrash rebuilds.
    const bool too_wide = probe_scan_steps_ > kMaxMeanSteps * probe_inserts_;
    const bool too_narrow =
        probe_cursor_steps_ > kMaxMeanSteps * probe_pops_;
    if ((too_wide || too_narrow) && size_ > 1) {
      const double cand = probe_width();
      if (cand > 0.0 && ((too_wide && cand < 0.5 * width_) ||
                         (too_narrow && cand > 2.0 * width_))) {
        new_width = cand;
      }
    }
    close_probe();
  }
  const bool retune = new_width != width_;
  if (!crowded && !retune) return;
  if (crowded) ++grows_;
  if (retune) ++retunes_;
  // Collect every live event, resize/re-tune the calendar, re-bucket.
  // Collection walks buckets in index order and re-inserts sorted, so the
  // rebuild is a pure function of the queue contents.
  std::vector<EventId> live;
  live.reserve(size_);
  for (EventId& head : heads_) {
    for (EventId id = head; id != kNoEvent;) {
      const EventId next = pool_[id].next;
      live.push_back(id);
      id = next;
    }
    head = kNoEvent;
  }
  if (crowded) heads_.assign(heads_.size() * 2, kNoEvent);
  if (retune) {
    width_ = new_width;
    inv_width_ = 1.0 / new_width;
    day_ = day_of(now_s_);  // same clock, new day units
  }
  for (const EventId id : live) insert(id);
  // The rebuild's own inserts must not count toward the next probe
  // (they do count toward the cumulative scan-cost telemetry).
  close_probe();
}

EventId EventQueue::schedule(double time_s, std::uint32_t node,
                             std::uint32_t kind, std::uint64_t a,
                             std::uint64_t b) {
  BRAIDIO_REQUIRE(std::isfinite(time_s) && time_s >= now_s_, "time_s",
                  time_s, "now_s", now_s_);
  BRAIDIO_REQUIRE(time_s * inv_width_ < kMaxDays, "time_s", time_s,
                  "width_s", width_);
  const EventId id = acquire();
  Event& ev = pool_[id];
  ev.time_s = time_s;
  ev.seq = next_seq_++;
  ev.node = node;
  ev.kind = kind;
  ev.a = a;
  ev.b = b;
  ev.next = kNoEvent;
  max_sched_s_ = std::max(max_sched_s_, time_s);
  ++probe_inserts_;
  insert(id);
  ++size_;
  peak_size_ = std::max<std::uint64_t>(peak_size_, size_);
  // Only a crowded calendar or a full probe window can rebuild; keep
  // the common case free of the out-of-line call.
  if (size_ > 2 * heads_.size() || probe_inserts_ >= kProbeInserts) {
    maybe_grow();
  }
  return id;
}

bool EventQueue::pop(Event& out) {
  if (size_ == 0) return false;
  // One calendar lap from the cursor day: a bucket head fires only when
  // its own day has been reached, which keeps events a whole lap away
  // (wraparound) from firing a year early.
  const std::size_t buckets = heads_.size();
  EventId hit = kNoEvent;
  std::size_t step = 0;
  for (; step < buckets; ++step) {
    const EventId head = heads_[bucket_of(day_)];
    if (head != kNoEvent && day_of(pool_[head].time_s) <= day_) {
      hit = head;
      break;
    }
    ++day_;
  }
  probe_cursor_steps_ += step;
  ++probe_pops_;
  if (hit == kNoEvent) {
    // Sparse region: nothing within the next lap. Jump the calendar
    // straight to the earliest head (deterministic bucket-index scan,
    // (time, seq) ordered).
    for (const EventId head : heads_) {
      if (head == kNoEvent) continue;
      const Event& ev = pool_[head];
      if (hit == kNoEvent || ev.time_s < pool_[hit].time_s ||
          (ev.time_s == pool_[hit].time_s && ev.seq < pool_[hit].seq)) {
        hit = head;
      }
    }
    day_ = day_of(pool_[hit].time_s);
  }
  heads_[bucket_of(day_)] = pool_[hit].next;
  out = pool_[hit];
  out.next = kNoEvent;
  if (out.time_s > now_s_) ++probe_advances_;
  now_s_ = out.time_s;
  release(hit);
  --size_;
  ++processed_;
  return true;
}

void EventQueue::reset() {
  for (EventId& head : heads_) head = kNoEvent;
  free_head_ = kNoEvent;
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    pool_[i].next = i + 1 < pool_.size() ? static_cast<EventId>(i + 1)
                                         : kNoEvent;
  }
  if (!pool_.empty()) free_head_ = 0;
  size_ = 0;
  day_ = 0;
  now_s_ = 0.0;
  next_seq_ = 0;
  max_sched_s_ = 0.0;
  // Introspection counters (retunes/grows/peak/scan/cursor) are
  // lifetime-cumulative like processed_; only the open probe window
  // closes. The width and bucket count carry over to the refill.
  close_probe();
  gap_s_ = 0.0;  // a new run measures its own dequeue rate
}

}  // namespace braidio::net
