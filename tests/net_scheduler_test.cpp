// Event-queue core + CSMA-CA state machine: the determinism substrate
// of the network simulator (DESIGN.md §15).
#include "net/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "net/csma.hpp"
#include "util/rng.hpp"

namespace braidio::net {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  queue.schedule(3.0, 3, 0);
  queue.schedule(1.0, 1, 0);
  queue.schedule(2.0, 2, 0);
  Event ev;
  for (std::uint32_t want = 1; want <= 3; ++want) {
    ASSERT_TRUE(queue.pop(ev));
    EXPECT_EQ(ev.node, want);
    EXPECT_DOUBLE_EQ(queue.now_s(), static_cast<double>(want));
  }
  EXPECT_FALSE(queue.pop(ev));
  EXPECT_EQ(queue.processed(), 3u);
}

TEST(EventQueue, SameTimestampTiesBreakBySequence) {
  EventQueue queue;
  // Schedule out of node order at one instant: pops must follow the
  // schedule() call order (seq), not node ids or insertion luck.
  const std::uint32_t order[] = {7, 2, 9, 0, 5};
  for (const std::uint32_t node : order) queue.schedule(1.0, node, 0);
  Event ev;
  for (const std::uint32_t want : order) {
    ASSERT_TRUE(queue.pop(ev));
    EXPECT_EQ(ev.node, want);
  }
}

TEST(EventQueue, PayloadWordsSurviveTheQueue) {
  EventQueue queue;
  queue.schedule(1.0, 4, 2, 0xDEADBEEFull, 42);
  Event ev;
  ASSERT_TRUE(queue.pop(ev));
  EXPECT_EQ(ev.kind, 2u);
  EXPECT_EQ(ev.a, 0xDEADBEEFull);
  EXPECT_EQ(ev.b, 42u);
}

TEST(EventQueue, PoolSlotsAreReusedNotLeaked) {
  EventQueue queue;
  // Steady-state churn with at most 4 outstanding events: the pool must
  // plateau at the peak working set, not grow with total traffic.
  double t = 0.0;
  for (int round = 0; round < 1000; ++round) {
    for (std::uint32_t i = 0; i < 4; ++i) queue.schedule(t + 1.0, i, 0);
    Event ev;
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(queue.pop(ev));
    t = queue.now_s();
  }
  EXPECT_LE(queue.pool_slots(), 8u);
  EXPECT_EQ(queue.processed(), 4000u);
}

TEST(EventQueue, ResetRecyclesTheArena) {
  EventQueue queue;
  for (std::uint32_t i = 0; i < 64; ++i) {
    queue.schedule(static_cast<double>(i), i, 0);
  }
  const std::size_t slots = queue.pool_slots();
  queue.reset();
  EXPECT_TRUE(queue.empty());
  EXPECT_DOUBLE_EQ(queue.now_s(), 0.0);
  EXPECT_EQ(queue.pool_slots(), slots);  // retained, not freed
  // A refill of the same working set must not allocate new slots, and
  // the clock restarts from zero.
  for (std::uint32_t i = 0; i < 64; ++i) {
    queue.schedule(static_cast<double>(i), i, 0);
  }
  EXPECT_EQ(queue.pool_slots(), slots);
  Event ev;
  ASSERT_TRUE(queue.pop(ev));
  EXPECT_EQ(ev.node, 0u);
}

TEST(EventQueue, WrapsAroundManyCalendarLaps) {
  // Consecutive events 5 ms apart span tens of calendar years at the
  // starting width (no pop runs during the fill, so nothing re-tunes);
  // order and clock must never slip across the laps.
  EventQueue queue;
  double t = 0.0;
  std::uint32_t seq = 0;
  for (int i = 0; i < 500; ++i) {
    t += 5e-3;
    queue.schedule(t, seq++, 0);
  }
  ASSERT_GT(t, 10.0 * queue.bucket_width_s() *
                   static_cast<double>(queue.bucket_count()));
  Event ev;
  double last = 0.0;
  for (std::uint32_t want = 0; want < seq; ++want) {
    ASSERT_TRUE(queue.pop(ev));
    EXPECT_EQ(ev.node, want);
    EXPECT_GT(ev.time_s, last);
    last = ev.time_s;
  }
}

TEST(EventQueue, SparseJumpSkipsEmptyYears) {
  // A gap a whole lap cannot cover forces the sparse-region jump; the
  // far event must still fire (and in (time, seq) order).
  EventQueue queue;
  queue.schedule(1e-3, 1, 0);
  queue.schedule(1000.0, 3, 0);
  queue.schedule(1000.0, 2, 0);  // same instant: seq breaks the tie
  ASSERT_GT(1000.0, queue.bucket_width_s() *
                        static_cast<double>(queue.bucket_count()));
  Event ev;
  ASSERT_TRUE(queue.pop(ev));
  EXPECT_EQ(ev.node, 1u);
  ASSERT_TRUE(queue.pop(ev));
  EXPECT_EQ(ev.node, 3u);
  ASSERT_TRUE(queue.pop(ev));
  EXPECT_EQ(ev.node, 2u);
  EXPECT_DOUBLE_EQ(queue.now_s(), 1000.0);
}

TEST(EventQueue, RetunesWidthForClusteredWorkloads) {
  // Thousands of live events packed into a handful of 250 us days: the
  // calendar must shrink its width rather than degrade to long sorted
  // scans — and the pop order must stay exactly (time, seq).
  EventQueue queue;
  const double initial_width = queue.bucket_width_s();
  util::Rng rng(7);
  std::vector<double> times;
  for (int i = 0; i < 4000; ++i) {
    const double t = rng.uniform(0.0, 2e-3);
    times.push_back(t);
    queue.schedule(t, static_cast<std::uint32_t>(i), 0);
  }
  EXPECT_LT(queue.bucket_width_s(), initial_width);
  Event ev;
  double last = -1.0;
  std::uint64_t last_seq = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    ASSERT_TRUE(queue.pop(ev));
    if (ev.time_s == last) {
      EXPECT_GT(ev.seq, last_seq);  // FIFO among simultaneous events
    } else {
      EXPECT_GT(ev.time_s, last);
    }
    last = ev.time_s;
    last_seq = ev.seq;
  }
  EXPECT_TRUE(queue.empty());
}

// Shapes of the dense-star scheduler load. A CSMA contender backs off
// 128 us (CCA) plus k x 320 us, k < 32, from now; a tail event (a first
// kick) refires uniformly within the next second.
constexpr std::uint32_t kContender = 0;
constexpr std::uint32_t kTail = 1;

double contender_step(util::Rng& rng) {
  return 128e-6 + 320e-6 * static_cast<double>(rng.uniform_int(0, 31));
}

TEST(EventQueue, CsmaShapedHoldKeepsInsertScansShort) {
  // 1,000 contenders crowding the next 10 ms over 9,000 events spread
  // across the next second, at the star's 10k depth. A day width fitted
  // to the whole live span (~200 us) puts ~25 contenders in each day and
  // every insert walks past about half of them; fitted to the dequeue
  // rate, a sorted insert walks at most a few links.
  EventQueue queue;
  util::Rng rng(3);
  for (std::uint32_t i = 0; i < 9000; ++i) {
    queue.schedule(rng.uniform(0.0, 1.0), i, kTail);
  }
  for (std::uint32_t i = 0; i < 1000; ++i) {
    queue.schedule(rng.uniform(0.0, 10e-3), i, kContender);
  }
  Event ev;
  const auto hold = [&](int ops) {
    for (int k = 0; k < ops; ++k) {
      ASSERT_TRUE(queue.pop(ev));
      const double next = ev.kind == kContender
                              ? ev.time_s + contender_step(rng)
                              : ev.time_s + rng.uniform(0.0, 1.0);
      queue.schedule(next, ev.node, ev.kind);
    }
  };
  hold(20000);  // warm-up: measure the steady state, not the re-tune
  const std::uint64_t scans = queue.scan_steps();
  const int ops = 100000;
  hold(ops);
  const double per_insert =
      static_cast<double>(queue.scan_steps() - scans) / ops;
  EXPECT_LE(per_insert, 3.0);
  EXPECT_LT(queue.retunes(), 10u);
}

TEST(EventQueue, InOrderSparseHoldWidensTheDay) {
  // Sixteen events in flight, each scheduled 5 ms after the last (a
  // slot train): at the starting width every pop walks ~20 empty days,
  // so the calendar must widen its day rather than keep walking.
  EventQueue queue;
  const double initial_width = queue.bucket_width_s();
  double last = 0.0;
  for (std::uint32_t i = 0; i < 16; ++i) {
    last += 5e-3;
    queue.schedule(last, i, 0);
  }
  Event ev;
  for (int k = 0; k < 2000; ++k) {
    ASSERT_TRUE(queue.pop(ev));
    last += 5e-3;
    queue.schedule(last, ev.node, 0);
  }
  EXPECT_GT(queue.bucket_width_s(), initial_width);
  EXPECT_LT(queue.retunes(), 10u);
}

TEST(EventQueue, InsertBurstWithoutPopsKeepsTheMeasuredDay) {
  // A slot train 5 ms apart widens the day; then 200 events land 0.5 ms
  // apart before the next pop (a round start). The window holding that
  // burst has no pops, so it re-tunes from the last measured dequeue gap
  // rather than from the burst's own spacing: the day stays wide.
  EventQueue queue;
  double last = 0.0;
  for (std::uint32_t i = 0; i < 16; ++i) {
    last += 5e-3;
    queue.schedule(last, i, 0);
  }
  Event ev;
  for (int k = 0; k < 2000; ++k) {
    ASSERT_TRUE(queue.pop(ev));
    last += 5e-3;
    queue.schedule(last, ev.node, 0);
  }
  const double widened = queue.bucket_width_s();
  const std::uint64_t retunes = queue.retunes();
  for (std::uint32_t i = 0; i < 200; ++i) {
    last += 0.5e-3;
    queue.schedule(last, 100 + i, 0);
  }
  EXPECT_EQ(queue.bucket_width_s(), widened);
  EXPECT_EQ(queue.retunes(), retunes);
}

TEST(EventQueue, MatchesAnOrderedSetAcrossRetunesBothWays) {
  // Randomized differential run against a std::set ordered by
  // (time, seq): clustered ms-scale contention over a uniform far tail
  // (the width must fall), a drain, in-order events 5 ms apart (it must
  // rise), a reset() mid-stream, then the clustered phase again. Ties
  // come from rescheduling at exactly now and from repeating the last
  // contender's instant. Every pop must match the reference.
  using Key = std::tuple<double, std::uint64_t, std::uint32_t>;
  std::set<Key> ref;
  EventQueue queue;
  util::Rng rng(11);
  std::uint64_t seq = 0;
  std::size_t ops = 0;
  std::size_t mismatches = 0;
  bool fell = false;
  bool rose = false;
  const auto schedule = [&](double t, std::uint32_t node,
                            std::uint32_t kind) {
    const double before = queue.bucket_width_s();
    queue.schedule(t, node, kind);
    ref.emplace(t, seq++, node);
    fell = fell || queue.bucket_width_s() < before;
    rose = rose || queue.bucket_width_s() > before;
    ++ops;
  };
  const auto pop = [&](Event& ev) {
    ASSERT_TRUE(queue.pop(ev));
    ASSERT_FALSE(ref.empty());
    if (Key(ev.time_s, ev.seq, ev.node) != *ref.begin()) ++mismatches;
    ref.erase(ref.begin());
    ++ops;
  };
  const auto clustered = [&](int holds) {
    for (std::uint32_t i = 0; i < 5000; ++i) {
      schedule(queue.now_s() + rng.uniform(0.0, 1.0), i, kTail);
    }
    double last_contender = queue.now_s();
    for (std::uint32_t i = 0; i < 600; ++i) {
      last_contender = queue.now_s() + rng.uniform(0.0, 10e-3);
      schedule(last_contender, 5000 + i, kContender);
    }
    Event ev;
    for (int k = 0; k < holds; ++k) {
      pop(ev);
      if (ev.kind == kTail) {
        schedule(ev.time_s + rng.uniform(0.0, 1.0), ev.node, kTail);
        continue;
      }
      const double u = rng.uniform();
      double next = ev.time_s + contender_step(rng);
      if (u < 0.05) {
        next = ev.time_s;  // fires again at this very instant
      } else if (u < 0.15 && last_contender >= ev.time_s) {
        next = last_contender;  // shares another contender's instant
      }
      last_contender = next;
      schedule(next, ev.node, kContender);
    }
  };
  const auto in_order = [&](int holds) {
    double last = queue.now_s();
    for (std::uint32_t i = 0; i < 32; ++i) {
      last += 5e-3;
      schedule(last, i, 0);
    }
    Event ev;
    for (int k = 0; k < holds; ++k) {
      pop(ev);
      last += 5e-3;
      schedule(last, ev.node, 0);
    }
  };
  const auto drain = [&] {
    Event ev;
    while (!queue.empty()) pop(ev);
  };

  clustered(30000);
  drain();
  EXPECT_TRUE(fell);  // clustered contention narrowed the day
  rose = false;
  in_order(20000);
  EXPECT_TRUE(rose);  // the in-order train widened it
  queue.reset();      // with the train's events still queued
  ref.clear();
  seq = 0;
  fell = false;
  clustered(20000);
  drain();
  EXPECT_TRUE(fell);  // and contention after reset() narrowed it again

  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(ref.empty());
  EXPECT_GE(ops, 100000u);
}

TEST(CsmaCa, RejectsBadConfig) {
  CsmaConfig bad;
  bad.min_be = 6;
  bad.max_be = 5;
  EXPECT_THROW(CsmaCa{bad}, std::invalid_argument);
  CsmaConfig zero_unit;
  zero_unit.unit_backoff_s = 0.0;
  EXPECT_THROW(CsmaCa{zero_unit}, std::invalid_argument);
  CsmaConfig zero_window;
  zero_window.cca_window_s = 0.0;
  EXPECT_THROW(CsmaCa{zero_window}, std::invalid_argument);
}

TEST(CsmaCa, BeResetSemanticsMatchTheSubMacLifecycle) {
  // Audit pin for the 802.15.4 NB/BE lifecycle (see csma.hpp): begin()
  // is the per-access-attempt reset, called by the MAC for every new
  // frame AND every ARQ retransmission. BE rises only through busy()
  // *within* one attempt, and a clear CCA mid-attempt does NOT re-lower
  // it — the attempt is over once the frame hits the air, and the next
  // attempt's begin() is what restores min_be.
  CsmaCa csma;
  csma.begin();
  EXPECT_EQ(csma.be(), csma.config().min_be);
  EXPECT_EQ(csma.backoffs(), 0u);
  // Busy CCAs raise BE toward the cap, one budget unit each.
  EXPECT_TRUE(csma.busy());
  EXPECT_EQ(csma.be(), csma.config().min_be + 1);
  EXPECT_TRUE(csma.busy());
  EXPECT_TRUE(csma.busy());
  EXPECT_EQ(csma.be(), csma.config().max_be);  // capped at macMaxBE
  EXPECT_TRUE(csma.busy());
  EXPECT_EQ(csma.be(), csma.config().max_be);  // stays capped
  EXPECT_EQ(csma.backoffs(), 4u);
  // The frame now clears CCA and transmits: nothing in the state machine
  // moves, and the *next* access attempt (new frame or retransmission)
  // starts over from min_be via begin().
  csma.begin();
  EXPECT_EQ(csma.be(), csma.config().min_be);
  EXPECT_EQ(csma.backoffs(), 0u);
}

TEST(CsmaCa, BackoffsGrowWithBusyChannelAndExhaust) {
  CsmaCa csma;
  util::Rng rng(1);
  csma.begin();
  // BE starts at min_be=3: backoff in [0, 7] unit periods.
  const double unit = csma.config().unit_backoff_s;
  for (int i = 0; i < 64; ++i) {
    const double b = csma.backoff_s(rng);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 7.0 * unit);
  }
  // Each busy raises BE toward max_be=5 and burns one of 4 retries.
  EXPECT_TRUE(csma.busy());
  EXPECT_TRUE(csma.busy());
  EXPECT_TRUE(csma.busy());
  bool saw_wide = false;
  for (int i = 0; i < 64; ++i) {
    const double b = csma.backoff_s(rng);
    EXPECT_LE(b, 31.0 * unit);
    if (b > 7.0 * unit) saw_wide = true;
  }
  EXPECT_TRUE(saw_wide);  // BE really did rise past min_be
  EXPECT_TRUE(csma.busy());   // 4th busy: the budget's last retry
  EXPECT_FALSE(csma.busy());  // budget exhausted: access failure
  csma.begin();  // re-arming restores the budget
  EXPECT_TRUE(csma.busy());
}

}  // namespace
}  // namespace braidio::net
