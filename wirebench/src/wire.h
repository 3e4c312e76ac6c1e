// The wire client: starts a PubSubServer on an ephemeral loopback port and
// drives it from this one thread over at most four connections
// (connection 0 publishes, 1..3 subscribe), through the load, open-loop
// and saturation phases. Every reply and EVENT line goes to the Checker.
#ifndef WIREBENCH_WIRE_H_
#define WIREBENCH_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "checker.h"
#include "workload.h"

namespace wirebench {

struct RunOptions {
  double seconds = 10;
  /// Keep the request sequence (OpRecords) and read METRICS at the end.
  bool trace = false;
  /// Keep every checker observation (self-test).
  bool record_log = false;
};

/// One wire request as sent, for the traced replay and the wire spans.
struct OpRecord {
  enum Kind : uint8_t { kSub, kUnsub, kPub };
  enum Phase : uint8_t { kLoad, kWarmup, kOpen, kSaturation, kDrain };
  Kind kind = kSub;
  Phase phase = kLoad;
  /// Subscription or event index.
  uint32_t index = 0;
  int64_t sent = 0;
  int64_t replied = 0;
  /// Reply and every delivery received (publishes only).
  int64_t completed = 0;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> messages;

  std::vector<double> setup_s;
  double events_per_s = 0;
  double deliveries_per_s = 0;
  /// Open loop, from each event's scheduled send time.
  std::vector<double> latency_us;
  double sub_ops_per_s = 0;
  double rss_mb = 0;
  double send_lag_p99_us = 0;
  double busy_share = 0;
  uint64_t deliveries = 0;

  std::vector<OpRecord> ops;     // trace only
  std::string metrics_json;      // trace only: the METRICS reply
  std::vector<Record> log;       // record_log only
};

RunResult RunWire(Workload* workload, const RunOptions& options);

}  // namespace wirebench

#endif  // WIREBENCH_WIRE_H_
