// Copyright 2026 The vfps Authors.
// Tests for the epoch-based churn matcher (src/matcher/churn_matcher.h)
// and the broker's concurrent-churn mode: serial byte-equality against the
// naive oracle, the incremental reorganizer, and — tagged `concurrency`
// for the TSan CI job — chaos-churn soaks proving the weak consistency
// contract: a Match overlapping subscribe/unsubscribe may or may not see
// the in-flight subscriptions, but subscriptions stable across the call
// are matched exactly (no MISS), nothing untouched is invented (no
// PHANTOM), and results carry no duplicates.

#include "src/matcher/churn_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/matcher/naive_matcher.h"
#include "src/pubsub/broker.h"
#include "src/telemetry/metrics.h"
#include "src/util/rng.h"
#include "src/util/sync.h"
#include "src/verify/differential.h"

namespace vfps {
namespace {

std::vector<SubscriptionId> Sorted(std::vector<SubscriptionId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// --- serial correctness ------------------------------------------------------

TEST(ChurnTest, MatchesSimpleSubscriptions) {
  ChurnMatcher matcher;
  EXPECT_STREQ(matcher.name(), "churn");
  EXPECT_TRUE(matcher.supports_concurrent_churn());

  std::vector<Predicate> preds;
  preds.emplace_back(0, RelOp::kEq, 5);
  preds.emplace_back(1, RelOp::kLe, 10);
  ASSERT_TRUE(
      matcher.AddSubscription(Subscription::Create(1, std::move(preds)))
          .ok());
  preds.clear();
  preds.emplace_back(1, RelOp::kGt, 3);
  ASSERT_TRUE(
      matcher.AddSubscription(Subscription::Create(2, std::move(preds)))
          .ok());
  EXPECT_EQ(matcher.subscription_count(), 2u);

  std::vector<SubscriptionId> out;
  matcher.Match(Event::CreateUnchecked({{0, 5}, {1, 7}}), &out);
  EXPECT_EQ(Sorted(out), (std::vector<SubscriptionId>{1, 2}));
  matcher.Match(Event::CreateUnchecked({{0, 4}, {1, 7}}), &out);
  EXPECT_EQ(Sorted(out), (std::vector<SubscriptionId>{2}));
  matcher.Match(Event::CreateUnchecked({{0, 5}}), &out);
  EXPECT_EQ(out, (std::vector<SubscriptionId>{}));
}

TEST(ChurnTest, DuplicateAndMissingIdsFail) {
  ChurnMatcher matcher;
  std::vector<Predicate> preds;
  preds.emplace_back(0, RelOp::kEq, 1);
  ASSERT_TRUE(
      matcher.AddSubscription(Subscription::Create(7, std::move(preds)))
          .ok());
  preds.clear();
  preds.emplace_back(0, RelOp::kEq, 2);
  EXPECT_EQ(
      matcher.AddSubscription(Subscription::Create(7, std::move(preds)))
          .code(),
      StatusCode::kAlreadyExists);
  EXPECT_EQ(matcher.RemoveSubscription(8).code(), StatusCode::kNotFound);
  EXPECT_TRUE(matcher.RemoveSubscription(7).ok());
  EXPECT_EQ(matcher.RemoveSubscription(7).code(), StatusCode::kNotFound);
  EXPECT_EQ(matcher.subscription_count(), 0u);
}

TEST(ChurnTest, SerialChurnStaysByteIdenticalToNaive) {
  Rng rng(17);
  NaiveMatcher oracle;
  ChurnMatcher matcher;
  std::vector<SubscriptionId> live;
  SubscriptionId next_id = 1;
  std::vector<SubscriptionId> want, got;
  for (int step = 0; step < 1500; ++step) {
    if (live.empty() || rng.NextDouble() < 0.55) {
      Subscription s = RandomDiffSubscription(&rng, next_id++, /*attrs=*/6,
                                              /*domain=*/8);
      ASSERT_TRUE(oracle.AddSubscription(s).ok());
      ASSERT_TRUE(matcher.AddSubscription(s).ok());
      live.push_back(s.id());
    } else {
      const size_t pick = rng.Below(live.size());
      const SubscriptionId victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(oracle.RemoveSubscription(victim).ok());
      ASSERT_TRUE(matcher.RemoveSubscription(victim).ok());
    }
    if (step % 3 == 0) {
      Event event = RandomDiffEvent(&rng, /*attrs=*/6, /*domain=*/8,
                                    /*p_present=*/0.8);
      oracle.Match(event, &want);
      matcher.Match(event, &got);
      ASSERT_EQ(Sorted(got), Sorted(want)) << "diverged at step " << step;
    }
  }
  EXPECT_EQ(matcher.subscription_count(), oracle.subscription_count());
}

TEST(ChurnTest, ReorganizerPreservesMatchesAsStatisticsShift) {
  // Skewed ν: attribute 0 values become common, so access predicates
  // chosen before the shift are no longer optimal and the incremental
  // reorganizer relocates records — matches must not change.
  ChurnMatcher::Options options;
  options.reorg_period = 0;  // drive the reorganizer manually
  ChurnMatcher matcher(options);
  NaiveMatcher oracle;
  Rng rng(5);
  for (SubscriptionId id = 1; id <= 400; ++id) {
    Subscription s =
        RandomDiffSubscription(&rng, id, /*attrs=*/5, /*domain=*/6);
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
    ASSERT_TRUE(matcher.AddSubscription(s).ok());
  }
  std::vector<SubscriptionId> want, got;
  for (int round = 0; round < 30; ++round) {
    Event event =
        RandomDiffEvent(&rng, /*attrs=*/5, /*domain=*/6, /*p_present=*/0.9);
    matcher.ObserveEvent(event);
    const size_t moved = matcher.ReorganizeStep(/*max_records=*/50);
    (void)moved;
    oracle.Match(event, &want);
    matcher.Match(event, &got);
    ASSERT_EQ(Sorted(got), Sorted(want)) << "diverged at round " << round;
  }
}

TEST(ChurnTest, EpochStatsAdvanceUnderChurn) {
  ChurnMatcher matcher;
  std::vector<Predicate> preds;
  for (SubscriptionId id = 1; id <= 64; ++id) {
    preds.clear();
    preds.emplace_back(0, RelOp::kEq, static_cast<Value>(id % 4));
    ASSERT_TRUE(
        matcher.AddSubscription(Subscription::Create(id, preds)).ok());
  }
  for (SubscriptionId id = 1; id <= 32; ++id) {
    ASSERT_TRUE(matcher.RemoveSubscription(id).ok());
  }
  const EpochManager& epoch = matcher.epoch();
  EXPECT_GT(epoch.retired_total(), 0u);
  EXPECT_EQ(epoch.pinned_readers(), 0u);
  // Everything retired is eventually reclaimed (no readers are pinned).
  EXPECT_EQ(epoch.retired_total(),
            epoch.reclaimed_total() + epoch.limbo_depth());
}

TEST(ChurnTest, EpochGaugesRegisterThroughBrokerTelemetry) {
  BrokerOptions options;
  options.algorithm = Algorithm::kChurn;
  Broker broker(options);
  MetricsRegistry metrics;
  broker.AttachTelemetry(&metrics);
  auto sub = broker.Subscribe(
      {broker.Pred("price", "<=", 400).value()}, nullptr);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(broker.Unsubscribe(sub.value()).ok());
  const std::string text = metrics.ExportPrometheus();
  EXPECT_NE(text.find("vfps_epoch_pinned_readers"), std::string::npos);
  EXPECT_NE(text.find("vfps_epoch_limbo_depth"), std::string::npos);
  EXPECT_NE(text.find("vfps_epoch_reclaimed_total"), std::string::npos);
  EXPECT_EQ(metrics.GaugeValue("vfps_epoch_pinned_readers"), 0);
  EXPECT_GT(metrics.GaugeValue("vfps_epoch_reclaimed_total"), 0);
  broker.AttachTelemetry(nullptr);
}

// --- chaos-churn containment soak -------------------------------------------

// Writers mutate oracle + matcher + mutation log under a harness lock;
// readers Match WITHOUT the lock (truly concurrent with the writers) and
// check containment against oracle snapshots taken before and after:
//   * MISS:    an id matching before the call and untouched during it must
//              be reported;
//   * PHANTOM: a reported id untouched during the call must have been
//              matching before it;
//   * DUP:     the result carries no duplicates.
TEST(ChurnTest, ChaosChurnContainmentSoak) {
  ChurnMatcher matcher;
  NaiveMatcher oracle;
  Mutex mu(LockRank::kVerifyHarness, "churn_harness");
  std::vector<SubscriptionId> mutation_log;  // every touched id, in order
  std::vector<SubscriptionId> live;
  std::atomic<uint64_t> next_id{1};
  std::atomic<int> remaining{4000};
  std::atomic<bool> stop{false};

  constexpr uint32_t kAttrs = 6;
  constexpr Value kDomain = 8;

  auto writer = [&](uint64_t tid) {
    Rng rng(0x9e3779b9u * (tid + 1));
    // sync-relaxed-ok: stop/remaining are independent control counters;
    // shared harness state is protected by mu.
    while (!stop.load(std::memory_order_relaxed) &&
           // sync-relaxed-ok: see above — independent control counter.
           remaining.fetch_sub(1, std::memory_order_relaxed) > 0) {
      MutexLock lock(mu);
      if (live.empty() || rng.NextDouble() < 0.55) {
        Subscription s = RandomDiffSubscription(
            // sync-relaxed-ok: unique-id ticket; no dependent data.
            &rng, next_id.fetch_add(1, std::memory_order_relaxed), kAttrs,
            kDomain);
        ASSERT_TRUE(oracle.AddSubscription(s).ok());
        ASSERT_TRUE(matcher.AddSubscription(s).ok());
        live.push_back(s.id());
        mutation_log.push_back(s.id());
      } else {
        const size_t pick = rng.Below(live.size());
        const SubscriptionId victim = live[pick];
        live[pick] = live.back();
        live.pop_back();
        ASSERT_TRUE(oracle.RemoveSubscription(victim).ok());
        ASSERT_TRUE(matcher.RemoveSubscription(victim).ok());
        mutation_log.push_back(victim);
      }
    }
  };

  auto reader = [&](uint64_t tid) {
    Rng rng(0x85ebca6bu * (tid + 1));
    std::vector<SubscriptionId> expect_start, got;
    // sync-relaxed-ok: control flag; harness state is read under mu.
    while (!stop.load(std::memory_order_relaxed)) {
      Event event = RandomDiffEvent(&rng, kAttrs, kDomain,
                                    /*p_present=*/0.8);
      size_t v1;
      {
        MutexLock lock(mu);
        v1 = mutation_log.size();
        oracle.Match(event, &expect_start);
      }
      // The probe under test: no harness lock, concurrent with writers.
      matcher.Match(event, &got);
      std::unordered_set<SubscriptionId> touched;
      std::unordered_set<SubscriptionId> expect_set(expect_start.begin(),
                                                    expect_start.end());
      {
        MutexLock lock(mu);
        for (size_t i = v1; i < mutation_log.size(); ++i) {
          touched.insert(mutation_log[i]);
        }
      }
      std::unordered_set<SubscriptionId> got_set;
      for (SubscriptionId id : got) {
        ASSERT_TRUE(got_set.insert(id).second)
            << "DUP: id " << id << " reported twice";
        if (touched.count(id) == 0) {
          ASSERT_TRUE(expect_set.count(id) > 0)
              << "PHANTOM: id " << id
              << " reported but neither matching before the call nor "
                 "touched during it";
        }
      }
      for (SubscriptionId id : expect_start) {
        if (touched.count(id) == 0) {
          ASSERT_TRUE(got_set.count(id) > 0)
              << "MISS: id " << id
              << " matched before the call, untouched during it, but not "
                 "reported";
        }
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  threads.reserve(kWriters + kReaders);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back(writer, static_cast<uint64_t>(t));
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back(reader, static_cast<uint64_t>(t + kWriters));
  }
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Quiescent again: the matcher must agree with the oracle exactly.
  Rng rng(99);
  std::vector<SubscriptionId> want, got;
  for (int e = 0; e < 50; ++e) {
    Event event = RandomDiffEvent(&rng, kAttrs, kDomain, /*p_present=*/0.8);
    oracle.Match(event, &want);
    matcher.Match(event, &got);
    ASSERT_EQ(Sorted(got), Sorted(want));
  }
  EXPECT_EQ(matcher.epoch().pinned_readers(), 0u);
}

// Same soak with the background reorganizer racing the readers: a third
// kind of writer relocates records between cluster lists while matches are
// in flight. Placement changes must be invisible (two-phase move).
TEST(ChurnTest, ReorganizeRacesMatchSoak) {
  ChurnMatcher::Options options;
  options.reorg_period = 0;  // reorganizer driven by its own thread below
  ChurnMatcher matcher(options);
  NaiveMatcher oracle;
  Mutex mu(LockRank::kVerifyHarness, "reorg_harness");
  Rng setup_rng(31);
  constexpr uint32_t kAttrs = 5;
  constexpr Value kDomain = 6;
  for (SubscriptionId id = 1; id <= 500; ++id) {
    Subscription s = RandomDiffSubscription(&setup_rng, id, kAttrs, kDomain);
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
    ASSERT_TRUE(matcher.AddSubscription(s).ok());
  }

  std::atomic<bool> stop{false};
  std::thread reorganizer([&] {
    Rng rng(77);
    // sync-relaxed-ok: independent control flag.
    while (!stop.load(std::memory_order_relaxed)) {
      matcher.ObserveEvent(
          RandomDiffEvent(&rng, kAttrs, kDomain, /*p_present=*/0.9));
      matcher.ReorganizeStep(/*max_records=*/25);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  constexpr int kReaders = 3;
  std::atomic<int> probes{0};
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0xc2b2ae35u * (t + 1));
      std::vector<SubscriptionId> want, got;
      for (int e = 0; e < 400; ++e) {
        Event event =
            RandomDiffEvent(&rng, kAttrs, kDomain, /*p_present=*/0.8);
        {
          // The subscription set is fixed, so the oracle answer is exact
          // even while placements move; serialize only the oracle (it is
          // not thread-safe), never the matcher probe.
          MutexLock lock(mu);
          oracle.Match(event, &want);
        }
        matcher.Match(event, &got);
        ASSERT_EQ(Sorted(got), Sorted(want)) << "probe " << e;
        // sync-relaxed-ok: progress counter only.
        probes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true);
  reorganizer.join();
  EXPECT_EQ(probes.load(), kReaders * 400);
}

// --- broker concurrent-churn mode -------------------------------------------

TEST(ChurnTest, BrokerChurnAlgorithmSerialRoundTrip) {
  BrokerOptions options;
  options.algorithm = Algorithm::kChurn;
  Broker broker(options);
  std::atomic<int> notified{0};
  auto sub = broker.Subscribe(
      {broker.Pred("price", "<=", 400).value()},
      [&](const Notification&) { ++notified; });
  ASSERT_TRUE(sub.ok());
  auto result = broker.Publish({broker.Pair("price", 250)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches, 1u);
  EXPECT_EQ(notified.load(), 1);
  EXPECT_TRUE(broker.Unsubscribe(sub.value()).ok());
  result = broker.Publish({broker.Pair("price", 250)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().matches, 0u);
}

TEST(ChurnTest, BrokerConcurrentChurnSoak) {
  BrokerOptions options;
  options.algorithm = Algorithm::kChurn;
  options.concurrent_churn = true;
  options.store_events = false;  // required by the mode
  Broker broker(options);
  const AttributeId price = broker.schema().InternAttribute("price");

  // A stable subscription registered before any concurrency: every publish
  // of a matching event must notify it, churn or not.
  std::atomic<int> stable_hits{0};
  auto stable = broker.Subscribe({Predicate(price, RelOp::kLe, 100)},
                                 [&](const Notification&) { ++stable_hits; });
  ASSERT_TRUE(stable.ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> churners;
  constexpr int kChurners = 2;
  for (int t = 0; t < kChurners; ++t) {
    churners.emplace_back([&, t] {
      Rng rng(0x2545f491u * (t + 1));
      std::vector<SubscriptionId> mine;
      // sync-relaxed-ok: independent control flag.
      while (!stop.load(std::memory_order_relaxed)) {
        if (mine.empty() || rng.NextDouble() < 0.6) {
          auto id = broker.Subscribe(
              {Predicate(price, RelOp::kGt,
                         static_cast<Value>(rng.Range(1, 50)))},
              nullptr);
          ASSERT_TRUE(id.ok());
          mine.push_back(id.value());
        } else {
          const size_t pick = rng.Below(mine.size());
          ASSERT_TRUE(broker.Unsubscribe(mine[pick]).ok());
          mine[pick] = mine.back();
          mine.pop_back();
        }
      }
      for (SubscriptionId id : mine) {
        ASSERT_TRUE(broker.Unsubscribe(id).ok());
      }
    });
  }

  constexpr int kPublishes = 300;
  std::vector<std::thread> publishers;
  constexpr int kPublishers = 2;
  std::atomic<int> published{0};
  for (int t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&] {
      for (int i = 0; i < kPublishes; ++i) {
        auto result = broker.Publish(Event::CreateUnchecked({{price, 50}}));
        ASSERT_TRUE(result.ok());
        // The stable subscription is never touched: every publish must
        // count it.
        ASSERT_GE(result.value().matches, 1u);
        // sync-relaxed-ok: progress counter only.
        published.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : publishers) t.join();
  stop.store(true);
  for (std::thread& t : churners) t.join();

  EXPECT_EQ(published.load(), kPublishers * kPublishes);
  EXPECT_EQ(stable_hits.load(), kPublishers * kPublishes);
  EXPECT_EQ(broker.subscription_count(), 1u);
  EXPECT_TRUE(broker.Unsubscribe(stable.value()).ok());
}

}  // namespace
}  // namespace vfps
