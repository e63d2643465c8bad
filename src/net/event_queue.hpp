// Central discrete-event scheduler for the many-node network simulator.
//
// A calendar queue over virtual time: events hash into time buckets of a
// common width, each bucket holds an intrusively linked list sorted by
// (time, seq), and dequeue walks the calendar the way a desk calendar is
// read — today's page first, later pages as the clock advances, wrapping
// around the bucket array once per "year". Amortized O(1) schedule/pop
// while the day width stays near the gap between consecutive pops, so
// the queue measures that gap itself and re-tunes the width (Brown's
// calendar rule, CACM 1988): no caller tunes it.
//
// Determinism rules (DESIGN.md §15):
//   * ties on time_s break by a monotonically increasing sequence number
//     assigned at schedule() — FIFO among simultaneous events, so the
//     pop order is a pure function of the schedule() call sequence;
//   * the calendar cursor is an integer day counter (bucket windows are
//     compared through floor(time / width), never through accumulated
//     floating-point bucket bounds), so wraparound laps cannot drift;
//   * events live in an index-addressed object pool (no pointers, no
//     per-event heap allocation on the hot path; freed slots recycle
//     through an intrusive free list), so no ordering decision ever
//     depends on allocation addresses;
//   * the width re-tune reads only virtual times and call counts, so it
//     too is a pure function of the call sequence — and the pop order is
//     (time, seq) whatever the width, so re-tuning cannot change it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace braidio::net {

/// Pool index of an event; stable until the event is popped.
using EventId = std::uint32_t;
inline constexpr EventId kNoEvent = std::numeric_limits<EventId>::max();

/// One scheduled event. POD: consumers stash their state in the
/// node/kind discriminators and the two payload words.
struct Event {
  double time_s = 0.0;    // virtual firing time
  std::uint64_t seq = 0;  // schedule-order tie-break
  std::uint32_t node = 0; // target node index
  std::uint32_t kind = 0; // consumer-defined discriminator
  std::uint64_t a = 0;    // payload word 1
  std::uint64_t b = 0;    // payload word 2
  EventId next = kNoEvent;  // intrusive bucket / free-list link
};

class EventQueue {
 public:
  /// Starts with 64 buckets of 250 us. The bucket array doubles when
  /// occupancy exceeds ~2 events/bucket, and the day width re-tunes
  /// itself when sorted inserts scan long chains (too many events per
  /// day) or pops walk many empty days (too few) — see bucket_width_s().
  EventQueue();

  /// Schedule an event at `time_s` (>= now_s(); the virtual clock never
  /// runs backwards). Returns the pooled id (valid until popped).
  EventId schedule(double time_s, std::uint32_t node, std::uint32_t kind,
                   std::uint64_t a = 0, std::uint64_t b = 0);

  /// Pop the earliest event by (time_s, seq) into `out`; advances the
  /// virtual clock. Returns false when the queue is empty.
  bool pop(Event& out);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Virtual time of the last popped event (0 before the first pop).
  double now_s() const { return now_s_; }

  /// Events popped over this queue's lifetime (the events/sec numerator).
  std::uint64_t processed() const { return processed_; }

  /// Arena reset: recycle every event and rewind the clock to zero.
  /// Pool slots are retained, so a reset-and-refill cycle allocates
  /// nothing once the pool has grown to the working-set size.
  void reset();

  /// Pool slots ever allocated (pinned by the pool-reuse tests).
  std::size_t pool_slots() const { return pool_.size(); }

  /// Current day length; starts at 250 us, shrinks when the calendar
  /// re-tunes to a clustered workload and widens for a sparse one.
  double bucket_width_s() const { return width_; }
  std::size_t bucket_count() const { return heads_.size(); }

  // --- introspection (flight-recorder scheduler plane) ---------------
  // Lifetime-cumulative like processed(): reset() rewinds the clock but
  // keeps these, so a queue's telemetry survives arena reuse.
  /// Width re-tunes triggered by the scan/cursor probe.
  std::uint64_t retunes() const { return retunes_; }
  /// Calendar doublings triggered by occupancy.
  std::uint64_t grows() const { return grows_; }
  /// Largest simultaneous event population ever held.
  std::uint64_t peak_size() const { return peak_size_; }
  /// Cumulative sorted-insert scan steps: links walked past by schedule()
  /// and by re-bucketing (the probe's too-narrow signal).
  std::uint64_t scan_steps() const {
    return scan_total_ + probe_scan_steps_;
  }
  /// Cumulative empty days the pop() cursor walked past (the probe's
  /// too-wide signal); a sparse jump counts the lap it gave up on.
  std::uint64_t cursor_steps() const {
    return cursor_total_ + probe_cursor_steps_;
  }

 private:
  EventId acquire();
  void release(EventId id);
  /// Calendar day (bucket-window ordinal) a time belongs to.
  std::uint64_t day_of(double time_s) const;
  /// Bucket a calendar day hashes to.
  std::size_t bucket_of(std::uint64_t day) const;
  /// Sorted insert into the bucket owning `pool_[id].time_s`.
  void insert(EventId id);
  /// Double the calendar when occupancy gets dense, and re-tune the day
  /// width when the probe window saw long insert scans or long cursor
  /// walks; re-buckets in place either way.
  void maybe_grow();
  /// Mean virtual time between clock-advancing pops: this probe
  /// window's, else the last window's (0 before any was measured).
  double dequeue_gap() const;
  /// Day width the probe window's traffic asks for (see maybe_grow()).
  double probe_width() const;
  /// Fold the open probe window into the lifetime counters and open a
  /// new one at the current clock.
  void close_probe();

  double width_;
  double inv_width_;            // 1 / width_, the day_of() multiplier
  std::vector<EventId> heads_;  // bucket heads, sorted by (time, seq)
  std::vector<Event> pool_;
  EventId free_head_ = kNoEvent;
  std::size_t size_ = 0;
  std::uint64_t day_ = 0;  // calendar day the cursor is on
  double now_s_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  // Probe window driving the width re-tune: closed every 64 inserts, at
  // every rebuild and at reset(). It counts its inserts and their scan
  // steps, its pops, the empty days they walked and how many of them
  // advanced the clock, and remembers the clock it opened at.
  std::uint64_t probe_inserts_ = 0;
  std::uint64_t probe_scan_steps_ = 0;
  std::uint64_t probe_pops_ = 0;
  std::uint64_t probe_advances_ = 0;
  std::uint64_t probe_cursor_steps_ = 0;
  double probe_start_s_ = 0.0;
  /// Mean gap between clock-advancing pops in the last window that had
  /// any (0 until one closes; reset() forgets it).
  double gap_s_ = 0.0;
  // Introspection counters (see the accessors above).
  std::uint64_t retunes_ = 0;
  std::uint64_t grows_ = 0;
  std::uint64_t peak_size_ = 0;
  std::uint64_t scan_total_ = 0;    // scan steps from closed windows
  std::uint64_t cursor_total_ = 0;  // cursor steps from closed windows
  /// Latest time ever scheduled: with pops in time order, live events
  /// always sit in [now_s_, max_sched_s_], which bounds the live span
  /// O(1) for a re-tune before any pop.
  double max_sched_s_ = 0.0;
};

}  // namespace braidio::net
