// Self-test of the wire benchmark's checker.
//
//   wirebench_selftest
//
// Runs every workload briefly on a small input (each run must pass with no
// failed operation), then replays the recorded observation logs through a
// fresh Checker: unaltered (must pass) and with one alteration each — a
// dropped delivery, a duplicated one, one on a foreign connection, one
// after an UNSUB was acknowledged, one with wrong event text — each of
// which must be reported as a failure naming the broken rule. Exits 0
// when every case behaves as expected.
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checker.h"
#include "wire.h"
#include "workload.h"

namespace wirebench {
namespace {

int g_failures = 0;

void Report(bool pass, const std::string& what, const std::string& detail) {
  std::printf("%s  %s%s%s\n", pass ? "PASS" : "FAIL", what.c_str(),
              detail.empty() ? "" : ": ", detail.c_str());
  if (!pass) ++g_failures;
}

struct Recorded {
  std::unique_ptr<Workload> workload;
  RunResult run;
};

Recorded RunSmall(const std::string& name) {
  WorkloadParams params;
  LookupWorkload(name, /*small=*/true, &params);
  Recorded rec;
  rec.workload = std::make_unique<Workload>(params, 7);
  RunOptions opt;
  opt.seconds = 1;
  opt.record_log = true;
  rec.run = RunWire(rec.workload.get(), opt);
  const bool pass = rec.run.correct && rec.run.failed == 0 &&
                    rec.run.attempted > 0 && rec.run.deliveries > 0 &&
                    !rec.run.latency_us.empty() && rec.run.events_per_s > 0;
  std::string detail = std::to_string(rec.run.attempted) + " operations, " +
                       std::to_string(rec.run.failed) + " failed, " +
                       std::to_string(rec.run.deliveries) + " deliveries";
  for (const std::string& m : rec.run.messages) detail += "; " + m;
  Report(pass, "small run of " + name, detail);
  return rec;
}

/// Replays `log` into a fresh checker; returns its messages ("" = passed).
std::string Replay(const Workload& w, const std::vector<Record>& log) {
  Checker chk(&w);
  for (const Record& r : log) chk.Apply(r);
  chk.Finish();
  std::string all;
  for (const std::string& m : chk.messages()) all += m + " | ";
  return chk.ok() ? std::string() : (all.empty() ? "failed" : all);
}

void ExpectCaught(const Workload& w, const std::vector<Record>& log,
                  const std::string& what, const std::string& rule) {
  const std::string msgs = Replay(w, log);
  Report(!msgs.empty() && msgs.find(rule) != std::string::npos,
         "altered log (" + what + ") is reported",
         msgs.empty() ? "checker passed it" : msgs.substr(0, 160));
}

/// Index of the `k`-th delivery record of `log`, or -1.
long NthDelivery(const std::vector<Record>& log, size_t k) {
  for (size_t i = 0; i < log.size(); ++i) {
    if (log[i].kind == Record::kDelivery && k-- == 0) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

void AlteredLogs(const Recorded& rec, bool churn) {
  const Workload& w = *rec.workload;
  const std::vector<Record>& log = rec.run.log;
  const std::string name = w.params().name;
  Report(Replay(w, log).empty(), "unaltered log of " + name + " replays clean",
         "");
  const long d = NthDelivery(log, 10);
  if (d < 0) {
    Report(false, "log of " + name + " has deliveries", "");
    return;
  }
  {
    std::vector<Record> l = log;
    l.erase(l.begin() + d);
    ExpectCaught(w, l, name + ": dropped delivery", "incomplete");
  }
  {
    std::vector<Record> l = log;
    l.insert(l.begin() + d + 1, l[d]);
    ExpectCaught(w, l, name + ": duplicated delivery", "duplicate");
  }
  {
    std::vector<Record> l = log;
    l[d].conn = static_cast<uint8_t>(l[d].conn % 3 + 1);
    ExpectCaught(w, l, name + ": delivery on a foreign connection", "foreign");
  }
  {
    // Change the first attribute's value: still a well-formed event text,
    // but not the one that was published.
    std::vector<Record> l = log;
    std::string& text = l[d].text;
    const size_t eq = text.find(" = ");
    if (eq != std::string::npos) text[eq + 3] = text[eq + 3] == '1' ? '2' : '1';
    ExpectCaught(w, l, name + ": wrong event text", "text");
  }
  if (!churn) return;
  // A delivery of an event sent after the subscription's UNSUB was acked.
  std::map<uint32_t, uint64_t> server_id;
  std::map<uint32_t, size_t> unsub_acked_at;
  for (size_t i = 0; i < log.size(); ++i) {
    if (log[i].kind == Record::kSubAck) server_id[log[i].index] = log[i].number;
    if (log[i].kind == Record::kUnsubAck) unsub_acked_at[log[i].index] = i;
  }
  for (size_t i = 0; i < log.size(); ++i) {
    if (log[i].kind != Record::kPubSent) continue;
    const uint32_t e = log[i].index;
    for (const auto& [s, at] : unsub_acked_at) {
      if (at >= i || !w.Matches(s, e)) continue;
      std::vector<Record> l = log;
      Record r;
      r.kind = Record::kDelivery;
      r.conn = w.sub(s).conn;
      r.number = server_id[s];
      r.t = l[i].t;
      r.text = w.EventText(e);
      l.insert(l.begin() + i + 1, r);
      ExpectCaught(w, l, name + ": delivery after UNSUB acknowledged",
                   "after its UNSUB");
      return;
    }
  }
  Report(false, "churn log holds an unsubscribed match to alter", "");
}

}  // namespace
}  // namespace wirebench

int main() {
  using namespace wirebench;
  const Recorded match = RunSmall("wire_match");
  const Recorded fanout = RunSmall("wire_fanout");
  const Recorded churn = RunSmall("wire_churn");
  AlteredLogs(match, false);
  AlteredLogs(fanout, false);
  AlteredLogs(churn, true);
  std::printf("%s: %d failing case(s)\n", g_failures == 0 ? "OK" : "FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
