#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <tuple>

#include "src/core/normalize.h"
#include "src/core/subscription.h"
#include "src/lang/parser.h"
#include "src/matcher/dynamic_matcher.h"
#include "src/net/protocol.h"
#include "src/pubsub/broker.h"

namespace wirebench {

SpanLog::SpanLog(int64_t origin, size_t requests, size_t max_requests)
    : origin_(origin),
      stride_(std::max<size_t>(1, (requests + max_requests - 1) /
                                      std::max<size_t>(1, max_requests))) {}

uint16_t SpanLog::NameId(const char* name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (std::strcmp(names_[i], name) == 0) return static_cast<uint16_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint16_t>(names_.size() - 1);
}

uint32_t SpanLog::Add(const char* name, uint32_t parent, uint32_t request,
                      int64_t start, int64_t end) {
  if (!Sampled(request)) return 0;
  Span s;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.request = request;
  s.name = NameId(name);
  s.start = start - origin_;
  s.end = end - origin_;
  spans_.push_back(s);
  return s.id;
}

bool SpanLog::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span_id\tparent_id\trequest_id\tname\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%u\t%u\t%u\t%s\t%lld\t%lld\n", s.id, s.parent, s.request,
                 names_[s.name], static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  return std::fclose(f) == 0;
}

namespace {

/// A counter, gauge or histogram field from the METRICS JSON export:
/// `"name":<number>` or, with `field`, `"name":{..."field":<number>...}`.
double JsonValue(const std::string& json, const std::string& name,
                 const char* field = nullptr) {
  const std::string key = "\"" + name + "\":";
  size_t pos = json.find(key);
  if (pos == std::string::npos) return 0;
  pos += key.size();
  if (field != nullptr) {
    const size_t close = json.find('}', pos);
    const std::string fkey = std::string("\"") + field + "\":";
    pos = json.find(fkey, pos);
    if (pos == std::string::npos || pos > close) return 0;
    pos += fkey.size();
  }
  return std::strtod(json.c_str() + pos, nullptr);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Keeps the results of timed calls observable so none is optimised away.
volatile size_t g_sink = 0;

struct Stage {
  std::vector<double> ns;
  void Add(int64_t d) { ns.push_back(static_cast<double>(d)); }
};

}  // namespace

LayerMetrics MeasureLayers(const Workload& w, const RunResult& run,
                           SpanLog* spans) {
  const std::vector<OpRecord>& ops = run.ops;

  // --- wire spans -----------------------------------------------------------
  static constexpr const char* kWireNames[] = {"wire.sub", "wire.unsub",
                                               "wire.pub"};
  std::vector<double> pub_rtt_us;
  for (uint32_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    const bool publish = op.kind == OpRecord::kPub;
    const int64_t end =
        publish ? std::max(op.completed, op.replied) : op.replied;
    const uint32_t id = spans->Add(kWireNames[op.kind], 0, i, op.sent, end);
    if (publish) spans->Add("wire.reply", id, i, op.sent, op.replied);
    if (op.kind == OpRecord::kPub && op.phase == OpRecord::kOpen) {
      pub_rtt_us.push_back(static_cast<double>(op.replied - op.sent) / 1e3);
    }
  }

  // --- replay 1: protocol -> lang -> core -> Broker -> format --------------
  vfps::BrokerOptions bo;
  bo.store_events = false;
  vfps::Broker broker(bo);
  vfps::SchemaRegistry lang_schema;
  std::vector<vfps::SubscriptionId> user_id(w.num_subs(), 0);
  std::vector<std::pair<const vfps::Event*, vfps::SubscriptionId>> notes;
  auto handler = [&notes](const vfps::Notification& n) {
    notes.emplace_back(n.event, n.subscription);
  };
  Stage parse_sub, lang, norm, b_sub, b_unsub, parse_pub, b_pub, b_batch;
  double format_ns = 0;
  double formatted_deliveries = 0;
  std::vector<int64_t> stack_ns(ops.size(), 0);  // per PUB op
  bool replay_ok = true;

  // Formats as the server does: each event's text once, then one push
  // header per delivery.
  auto format = [&](uint32_t req, uint32_t parent, const vfps::Event* first,
                    size_t n) {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      g_sink = g_sink + vfps::FormatEventText(first[i], broker.schema()).size();
    }
    for (const auto& note : notes) {
      g_sink = g_sink + vfps::FormatEventPushHeader(note.second, 0).size();
    }
    const int64_t t1 = NowNs();
    formatted_deliveries += static_cast<double>(notes.size());
    format_ns += static_cast<double>(t1 - t0);
    spans->Add("protocol.format", parent, req, t0, t1);
    return t1 - t0;
  };

  for (uint32_t i = 0; i < ops.size() && replay_ok; ++i) {
    const OpRecord& op = ops[i];
    const int64_t r0 = NowNs();
    const uint32_t root = spans->Add("replay.request", 0, i, r0, r0);
    if (op.kind == OpRecord::kSub) {
      const std::string line = "SUB " + w.SubText(op.index);
      int64_t t0 = NowNs();
      vfps::Result<vfps::Request> req = vfps::ParseRequest(line);
      int64_t t1 = NowNs();
      spans->Add("protocol.parse_request", root, i, t0, t1);
      parse_sub.Add(t1 - t0);
      if (!req.ok()) { replay_ok = false; break; }
      t0 = NowNs();
      vfps::Result<vfps::ParsedCondition> cond =
          vfps::ParseCondition(req.value().body, &lang_schema);
      t1 = NowNs();
      spans->Add("lang.parse_condition", root, i, t0, t1);
      lang.Add(t1 - t0);
      if (!cond.ok()) { replay_ok = false; break; }
      t0 = NowNs();
      for (const auto& d : cond.value().disjuncts) {
        g_sink = g_sink + vfps::NormalizeConjunction(d).predicates.size();
      }
      t1 = NowNs();
      spans->Add("core.normalize", root, i, t0, t1);
      norm.Add(t1 - t0);
      t0 = NowNs();
      vfps::Result<vfps::SubscriptionId> id =
          broker.SubscribeExpression(req.value().body, handler);
      t1 = NowNs();
      spans->Add("broker.subscribe", root, i, t0, t1);
      b_sub.Add(t1 - t0);
      if (!id.ok()) { replay_ok = false; break; }
      user_id[op.index] = id.value();
    } else if (op.kind == OpRecord::kUnsub) {
      const std::string line = "UNSUB " + std::to_string(user_id[op.index]);
      int64_t t0 = NowNs();
      vfps::Result<vfps::Request> req = vfps::ParseRequest(line);
      int64_t t1 = NowNs();
      spans->Add("protocol.parse_request", root, i, t0, t1);
      if (!req.ok()) { replay_ok = false; break; }
      t0 = NowNs();
      vfps::Status st = broker.Unsubscribe(
          static_cast<vfps::SubscriptionId>(req.value().number));
      t1 = NowNs();
      spans->Add("broker.unsubscribe", root, i, t0, t1);
      b_unsub.Add(t1 - t0);
      if (!st.ok()) { replay_ok = false; break; }
    } else {
      const std::string line = "PUB " + w.EventText(op.index);
      const int64_t t0 = NowNs();
      vfps::Result<vfps::Request> req = vfps::ParseRequest(line);
      const int64_t t1 = NowNs();
      if (!req.ok()) { replay_ok = false; break; }
      vfps::Result<vfps::Event> ev =
          vfps::ParseEvent(req.value().body, &broker.schema());
      const int64_t t2 = NowNs();
      if (!ev.ok()) { replay_ok = false; break; }
      spans->Add("protocol.parse_request", root, i, t0, t1);
      spans->Add("protocol.parse_event", root, i, t1, t2);
      parse_pub.Add(t2 - t0);
      notes.clear();
      const int64_t t3 = NowNs();
      vfps::Result<vfps::PublishResult> pr = broker.Publish(ev.value());
      const int64_t t4 = NowNs();
      spans->Add("broker.publish", root, i, t3, t4);
      b_pub.Add(t4 - t3);
      if (!pr.ok()) { replay_ok = false; break; }
      stack_ns[i] = (t2 - t0) + (t4 - t3) + format(i, root, &ev.value(), 1);
    }
    spans->End(root, NowNs());
  }
  // Batch publishing (the paper's n_E_b = 100) is measured on the
  // saturation events re-published in batches of 100 at the end.
  if (replay_ok) {
    std::vector<vfps::Event> events;
    for (const OpRecord& op : ops) {
      if (op.kind != OpRecord::kPub || op.phase != OpRecord::kSaturation) {
        continue;
      }
      vfps::Result<vfps::Event> ev =
          vfps::ParseEvent(w.EventText(op.index), &broker.schema());
      if (ev.ok()) events.push_back(std::move(ev).value());
      if (events.size() == 100) {
        notes.clear();
        const int64_t t0 = NowNs();
        broker.PublishBatch(events);
        b_batch.Add((NowNs() - t0) / 100);
        events.clear();
        if (b_batch.ns.size() >= 200) break;
      }
    }
  }

  // --- replay 2: the matcher alone ------------------------------------------
  std::unique_ptr<vfps::Matcher> matcher =
      vfps::MakeMatcher(vfps::Algorithm::kDynamic);
  auto* dynamic = dynamic_cast<vfps::DynamicMatcher*>(matcher.get());
  vfps::SchemaRegistry m_schema;
  std::vector<std::vector<vfps::SubscriptionId>> internal(w.num_subs());
  vfps::SubscriptionId next_id = 1;
  Stage m_add, m_remove, m_match;
  std::vector<vfps::SubscriptionId> out;
  const vfps::MatcherStats stats0 = matcher->stats();
  for (uint32_t i = 0; i < ops.size() && replay_ok; ++i) {
    const OpRecord& op = ops[i];
    if (op.kind == OpRecord::kSub) {
      vfps::Result<vfps::ParsedCondition> cond =
          vfps::ParseCondition(w.SubText(op.index), &m_schema);
      if (!cond.ok()) { replay_ok = false; break; }
      for (const auto& d : cond.value().disjuncts) {
        vfps::NormalizedConjunction nc = vfps::NormalizeConjunction(d);
        if (nc.unsatisfiable) continue;
        const vfps::Subscription s =
            vfps::Subscription::Create(next_id, std::move(nc.predicates));
        const int64_t t0 = NowNs();
        const vfps::Status st = matcher->AddSubscription(s);
        const int64_t t1 = NowNs();
        spans->Add("matcher.add", 0, i, t0, t1);
        m_add.Add(t1 - t0);
        if (!st.ok()) { replay_ok = false; break; }
        internal[op.index].push_back(next_id++);
      }
    } else if (op.kind == OpRecord::kUnsub) {
      for (vfps::SubscriptionId id : internal[op.index]) {
        const int64_t t0 = NowNs();
        const vfps::Status st = matcher->RemoveSubscription(id);
        const int64_t t1 = NowNs();
        spans->Add("matcher.remove", 0, i, t0, t1);
        m_remove.Add(t1 - t0);
        if (!st.ok()) replay_ok = false;
      }
    } else {
      vfps::Result<vfps::Event> ev =
          vfps::ParseEvent(w.EventText(op.index), &m_schema);
      if (!ev.ok()) { replay_ok = false; break; }
      const int64_t t0 = NowNs();
      matcher->Match(ev.value(), &out);
      const int64_t t1 = NowNs();
      spans->Add("matcher.match", 0, i, t0, t1);
      m_match.Add(t1 - t0);
    }
  }
  const vfps::MatcherStats& s1 = matcher->stats();
  const double events = static_cast<double>(s1.events - stats0.events);
  const double checks =
      static_cast<double>(s1.subscription_checks - stats0.subscription_checks);

  // --- net: residual and METRICS ---------------------------------------------
  std::vector<double> residual_us;
  for (uint32_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    if (op.kind != OpRecord::kPub || op.phase != OpRecord::kOpen) continue;
    const int64_t wire = std::max(op.completed, op.replied) - op.sent;
    residual_us.push_back(static_cast<double>(wire - stack_ns[i]) / 1e3);
  }
  const std::string& mj = run.metrics_json;

  LayerMetrics m;
  auto put = [&m](const char* name, const char* unit, double v) {
    m.emplace_back(name, unit, v);
  };
  put("net.pub_rtt_p50_us", "us", Quantile(pub_rtt_us, 0.5));
  put("net.residual_p50_us", "us", Quantile(residual_us, 0.5));
  put("net.jobs_per_request", "jobs/request",
      Ratio(JsonValue(mj, "vfps_net_jobs_total"),
            JsonValue(mj, "vfps_server_requests_total")));
  put("net.backpressure_stalls", "count",
      JsonValue(mj, "vfps_net_backpressure_stalls_total"));
  put("net.iovecs_per_flush", "iovecs/flush",
      Ratio(JsonValue(mj, "vfps_net_writev_iovecs", "sum"),
            JsonValue(mj, "vfps_net_writev_iovecs", "count")));
  put("net.payload_refs_per_format", "refs/payload",
      Ratio(JsonValue(mj, "vfps_net_payload_refs_total"),
            JsonValue(mj, "vfps_net_payloads_formatted_total")));
  put("net.bytes_per_delivery", "B/delivery",
      Ratio(JsonValue(mj, "vfps_net_flush_bytes", "sum"),
            static_cast<double>(run.deliveries)));
  put("protocol.parse_pub_ns", "ns", Mean(parse_pub.ns));
  put("protocol.format_ns_per_delivery", "ns",
      Ratio(format_ns, formatted_deliveries));
  put("lang.parse_sub_ns", "ns", Mean(lang.ns));
  put("core.normalize_ns", "ns", Mean(norm.ns));
  put("broker.subscribe_p50_us", "us", Quantile(b_sub.ns, 0.5) / 1e3);
  put("broker.subscribe_max_us", "us", Quantile(b_sub.ns, 1.0) / 1e3);
  put("broker.unsubscribe_p50_us", "us", Quantile(b_unsub.ns, 0.5) / 1e3);
  put("broker.publish_p50_us", "us", Quantile(b_pub.ns, 0.5) / 1e3);
  put("broker.publish_batch_us_per_event", "us", Mean(b_batch.ns) / 1e3);
  put("matcher.match_mean_us", "us", Mean(m_match.ns) / 1e3);
  put("matcher.phase1_mean_us", "us",
      Ratio((s1.phase1_seconds - stats0.phase1_seconds) * 1e6, events));
  put("matcher.phase2_mean_us", "us",
      Ratio((s1.phase2_seconds - stats0.phase2_seconds) * 1e6, events));
  put("matcher.tables", "count",
      dynamic ? static_cast<double>(dynamic->TableSchemas().size()) : 0);
  put("matcher.checks_per_event", "checks/event", Ratio(checks, events));
  put("matcher.clusters_per_event", "clusters/event",
      Ratio(static_cast<double>(s1.clusters_scanned - stats0.clusters_scanned),
            events));
  put("matcher.predicates_per_event", "predicates/event",
      Ratio(static_cast<double>(s1.predicates_satisfied -
                                stats0.predicates_satisfied),
            events));
  put("matcher.useful_check_ratio", "matches/check",
      Ratio(static_cast<double>(s1.matches - stats0.matches), checks));
  put("matcher.bytes_per_sub", "B/subscription",
      Ratio(static_cast<double>(matcher->MemoryUsage()),
            static_cast<double>(matcher->subscription_count())));
  put("matcher.add_mean_us", "us", Mean(m_add.ns) / 1e3);
  put("matcher.remove_mean_us", "us", Mean(m_remove.ns) / 1e3);
  const vfps::DynamicMatcher::MaintenanceStats ms =
      dynamic ? dynamic->maintenance_stats()
              : vfps::DynamicMatcher::MaintenanceStats{};
  put("cost.sweeps", "count", static_cast<double>(ms.sweeps));
  put("cost.subscriptions_moved", "count",
      static_cast<double>(ms.subscriptions_moved));
  put("cost.tables_created", "count", static_cast<double>(ms.tables_created));
  put("gen.send_lag_p99_us", "us", run.send_lag_p99_us);
  put("gen.busy_share", "share", run.busy_share);
  if (!replay_ok) m.clear();  // the caller reports the failed replay
  return m;
}

}  // namespace wirebench
