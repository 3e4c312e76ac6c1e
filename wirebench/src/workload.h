// The benchmark's workloads and its reference evaluator.
//
// Every input is generated here from the seed: subscriptions are kept in
// their own compact form (an AND of items, at most one of them an OR
// group), rendered to the wire text the server parses, and evaluated by
// Matches() straight from the paper's definition: a conjunction matches
// when every predicate holds on the event's value for its attribute, and a
// DNF matches when any disjunct does. Nothing in this file calls the
// program under test.
#ifndef WIREBENCH_WORKLOAD_H_
#define WIREBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace wirebench {

enum class Op : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

struct Pred {
  uint16_t attr = 0;
  Op op = Op::kEq;
  int32_t value = 0;
};

/// A subscription: preds[begin, end) ANDed, except that the items at
/// relative positions [or_begin, or_end) form one OR group. Its DNF has one
/// disjunct per OR alternative (one disjunct when there is no group).
struct Sub {
  uint32_t begin = 0;
  uint32_t end = 0;
  uint8_t or_begin = 0;
  uint8_t or_end = 0;
  /// Subscriber connection (1..3) that owns it.
  uint8_t conn = 1;
  /// Bucket of its fixed equality predicates on the key attributes, or -1.
  int32_t key = -1;
};

/// Tunables of one workload (see README.md for the reasoning).
struct WorkloadParams {
  std::string name;
  std::string attr_prefix;
  int num_attrs = 0;
  /// Event values are uniform in [1, event_hi[attr]].
  std::vector<int> event_hi;
  /// Both key attributes are 0 and 1 with values in [1, key_domain]; 0
  /// means subscriptions are not bucketed.
  int key_domain = 0;
  /// Subscriptions loaded before the publish phases, per connection 1..3.
  size_t population[3] = {0, 0, 0};
  /// Open loop: offered PUB lines per second.
  double open_rate = 0;
  /// Connections that publish, each with at most one PUB outstanding; in
  /// saturation every one of them keeps one outstanding.
  std::vector<int> pub_conns = {0, 1, 2, 3};
  /// Churn on connection 1: UNSUB+SUB pairs sent per published event (0 =
  /// no churn).
  size_t churn_per_event = 0;
  /// Load-phase repetitions (setup_s is their median).
  int setups = 3;
};

/// All inputs of one run. Subscriptions and events are appended as the
/// run needs them; both streams depend only on the seed.
class Workload {
 public:
  Workload(WorkloadParams params, uint64_t seed);

  const WorkloadParams& params() const { return params_; }

  /// Appends the next subscription of the stream for `conn`.
  uint32_t NewSub(int conn);
  /// Appends the next event of the stream; its seq attribute is its index.
  uint32_t NewEvent();

  size_t num_subs() const { return subs_.size(); }
  size_t num_events() const { return events_.size() / stride(); }
  const Sub& sub(uint32_t i) const { return subs_[i]; }
  const int16_t* event(uint32_t e) const { return &events_[e * stride()]; }
  int num_attrs() const { return params_.num_attrs; }
  size_t stride() const { return static_cast<size_t>(params_.num_attrs); }

  /// Bucket of an event under the key attributes, or -1.
  int32_t EventKey(uint32_t e) const;
  int num_keys() const { return params_.key_domain * params_.key_domain; }

  /// The reference: does subscription `s` match event `e`?
  bool Matches(uint32_t s, uint32_t e) const {
    const Sub& sub = subs_[s];
    return Matches(sub, &preds_[sub.begin], event(e));
  }
  /// The same on a copy: `preds` holds the subscription's predicates.
  static bool Matches(const Sub& s, const Pred* preds, const int16_t* ev);
  const Pred* preds(uint32_t s) const { return &preds_[subs_[s].begin]; }

  /// Wire texts.
  std::string SubText(uint32_t s) const;
  std::string EventText(uint32_t e) const;
  /// Attribute index of `name`, kSeqAttr for "seq", or -1.
  int AttrIndex(std::string_view name) const;
  static constexpr int kSeqAttr = 1 << 20;

 private:
  WorkloadParams params_;
  Rng sub_rng_;
  Rng event_rng_;
  std::vector<std::string> attr_names_;
  std::vector<Pred> preds_;
  std::vector<Sub> subs_;
  std::vector<int16_t> events_;
};

/// The named workloads: wire_match, wire_fanout, wire_churn. Returns false
/// for an unknown name. `small` shrinks populations and rates for the
/// self-test.
bool LookupWorkload(const std::string& name, bool small, WorkloadParams* out);

/// Parses "name = value, name = value, ..." into (attr, value) pairs using
/// the workload's names; false on any malformed or unknown part.
bool ParseEventText(const Workload& w, std::string_view text,
                    std::vector<std::pair<int, int64_t>>* pairs);

}  // namespace wirebench

#endif  // WIREBENCH_WORKLOAD_H_
