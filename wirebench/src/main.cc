// wirebench: the end-to-end wire benchmark of vfps.
//
//   wirebench --workload <wire_match|wire_fanout|wire_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints human-readable lines, then as its last line one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 0 exactly when every output checked was correct.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "wire.h"
#include "trace.h"
#include "workload.h"

namespace wirebench {
namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : "0";
}

void PrintResult(const RunResult& r, const LayerMetrics& metrics) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, unit, value] = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Number(value) +
           ", \"unit\": \"" + unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

LayerMetrics EndToEnd(const RunResult& r) {
  return {
      {"setup_s", "s", Quantile(r.setup_s, 0.5)},
      {"events_per_s", "events/s", r.events_per_s},
      {"deliveries_per_s", "deliveries/s", r.deliveries_per_s},
      {"latency_p50_us", "us", Quantile(r.latency_us, 0.5)},
      {"rss_mb", "MiB", r.rss_mb},
  };
}

int Usage() {
  std::fprintf(stderr,
               "usage: wirebench --workload <wire_match|wire_fanout|"
               "wire_churn> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string out_dir = ".";
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return Usage();
    ++i;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  WorkloadParams params;
  if (!LookupWorkload(workload_name, /*small=*/false, &params) ||
      seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  Workload w(params, seed);
  RunOptions opt;
  opt.seconds = seconds;
  opt.trace = trace == 1;
  const int64_t origin = NowNs();
  RunResult r = RunWire(&w, opt);

  std::printf("workload %s seed %llu: %zu subscriptions and %zu events "
              "generated, %llu deliveries received\n",
              params.name.c_str(), static_cast<unsigned long long>(seed),
              w.num_subs(), w.num_events(),
              static_cast<unsigned long long>(r.deliveries));
  for (const auto& [name, unit, value] : EndToEnd(r)) {
    std::printf("  %-18s %14.3f %s\n", name.c_str(), value, unit.c_str());
  }
  std::printf("  subscription writes acknowledged: %.1f ops/s\n",
              r.sub_ops_per_s);
  std::printf("  open-loop latency samples: %zu, p90 %.1f us, p99 %.1f us, "
              "max %.1f us; setups: %zu; generator busy share %.3f, send lag "
              "p99 %.1f us\n",
              r.latency_us.size(), Quantile(r.latency_us, 0.9),
              Quantile(r.latency_us, 0.99), Quantile(r.latency_us, 1.0),
              r.setup_s.size(), r.busy_share, r.send_lag_p99_us);
  for (const std::string& m : r.messages) {
    std::printf("  FAILED: %s\n", m.c_str());
  }

  LayerMetrics metrics;
  if (opt.trace) {
    SpanLog spans(origin, r.ops.size(), 100000);
    if (r.correct) {
      metrics = MeasureLayers(w, r, &spans);
      if (metrics.empty()) {
        r.correct = false;
        std::printf("  FAILED: the in-process replay was refused by a layer\n");
      }
    }
    const std::string spans_path = out_dir + "/" + params.name + ".spans.tsv";
    const std::string layers_path = out_dir + "/" + params.name + ".layers.tsv";
    FILE* f = std::fopen(layers_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "metric\tvalue\tunit\n");
      for (const auto& [name, unit, value] : metrics) {
        std::printf("  %-34s %14.3f %s\n", name.c_str(), value, unit.c_str());
        std::fprintf(f, "%s\t%s\t%s\n", name.c_str(), Number(value).c_str(),
                     unit.c_str());
      }
      std::fclose(f);
    }
    if (spans.Write(spans_path)) {
      std::printf("  spans: %zu (every %zu. request) in %s; per-layer "
                  "metrics in %s\n",
                  spans.size(), spans.stride(), spans_path.c_str(),
                  layers_path.c_str());
    }
  } else {
    metrics = EndToEnd(r);
  }
  std::fflush(stdout);
  PrintResult(r, metrics);
  return r.correct ? 0 : 1;
}

}  // namespace wirebench

int main(int argc, char** argv) { return wirebench::Main(argc, argv); }
