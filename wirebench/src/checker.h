// The delivery checker. The wire client (wire.h) reports everything it
// sends and receives; the checker compares it with the workload's
// reference evaluator (workload.h) as it goes, so memory stays bounded by
// the requests in flight, not by the run length.
//
// Each call is stamped with a logical sequence number (the client's
// program order) that decides "before" and "after"; wall times are only
// carried through to latency. Checked on every run:
//   - every delivery is sound (the reference says the subscription
//     matches the event) and arrives on the connection that owns it;
//   - no (subscription, event) pair arrives twice;
//   - its text parses back to the published pairs;
//   - no subscription receives an event sent after its UNSUB was acked;
//   - every event is delivered to each subscription whose SUB was acked
//     before the event was sent and whose UNSUB was not sent before the
//     event's reply arrived, and the reply's <matches> count equals the
//     deliveries received (with a static population that is the exact
//     expected set).
// The client adds the per-request checks (OK in order, no closed
// connection) through Fail().
#ifndef WIREBENCH_CHECKER_H_
#define WIREBENCH_CHECKER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "workload.h"

namespace wirebench {

/// One observation, as recorded for the self-test's altered-log replays.
struct Record {
  enum Kind : uint8_t {
    kSubSent, kSubAck, kUnsubSent, kUnsubAck, kPubSent, kPubReply,
    kDelivery,
  };
  Kind kind = kSubSent;
  uint8_t conn = 0;
  /// Subscription or event index.
  uint32_t index = 0;
  /// Server subscription id (kSubAck, kDelivery) or matches (kPubReply).
  uint64_t number = 0;
  int64_t t = 0;
  /// Delivery text.
  std::string text;
};

class Checker {
 public:
  explicit Checker(const Workload* workload);

  void SubSent(int conn, uint32_t sub, int64_t t);
  void SubAck(int conn, uint32_t sub, uint64_t server_id, int64_t t);
  void UnsubSent(int conn, uint32_t sub, int64_t t);
  void UnsubAck(int conn, uint32_t sub, int64_t t);
  void PubSent(int conn, uint32_t event, int64_t t);
  void PubReply(int conn, uint32_t event, uint64_t matches, int64_t t);
  /// `text` is the EVENT line after "EVENT <sub> <event-id> ".
  void Delivery(int conn, uint64_t server_sub, std::string_view text,
                int64_t t);
  /// Replays one recorded observation.
  void Apply(const Record& r);

  /// A correctness failure found outside the delivery rules.
  void Fail(const std::string& message);
  /// Ends the run: events still outstanding are failures.
  void Finish();

  bool ok() const { return errors_ == 0; }
  /// The first few failure messages.
  const std::vector<std::string>& messages() const { return messages_; }
  size_t outstanding_events() const { return outstanding_; }
  uint64_t deliveries() const { return deliveries_; }
  /// Server subscription id of a subscription (0 if not acked).
  uint64_t ServerId(uint32_t sub) const;

  /// Called when an event's reply and all its deliveries have arrived:
  /// (event index, time of the completing observation).
  std::function<void(uint32_t, int64_t)> on_complete;
  /// When set, every observation is appended here.
  std::vector<Record>* log = nullptr;

 private:
  struct SubState {
    uint64_t server_id = 0;
    uint64_t sent = kNeverSeq;
    uint64_t acked = kNeverSeq;
    uint64_t unsub_sent = kNeverSeq;
    uint64_t unsub_acked = kNeverSeq;
  };
  struct EventState {
    bool live = false;
    uint64_t sent = 0;
    uint64_t replied = kNeverSeq;
    uint64_t matches = 0;
    std::vector<uint32_t> received;
    /// Sorted subscriptions that must receive the event (set at reply).
    std::shared_ptr<const std::vector<uint32_t>> must;
    std::string text;
  };
  static constexpr uint64_t kNeverSeq = UINT64_MAX;

  EventState* Find(uint32_t event);
  /// Sorted subscriptions that must receive `event`, judged at its reply.
  std::shared_ptr<const std::vector<uint32_t>> MustSet(uint32_t event,
                                                      const EventState& st);
  void MaybeComplete(uint32_t event, EventState* st, int64_t t);
  void Error(uint32_t event, const std::string& message);
  SubState& State(uint32_t sub);
  /// A change to the population invalidates memoised expected sets.
  void PopulationChanged() { memo_.clear(); }
  /// Expected sets are memoised per distinct event when a static
  /// population meets few distinct events (5 bits per attribute value).
  bool memo_enabled_ = false;

  const Workload* w_;
  uint64_t seq_ = 0;
  std::vector<SubState> subs_;
  std::vector<uint32_t> by_server_id_;  // server id -> sub index + 1
  /// Subscriptions by key bucket (one bucket when the workload has no
  /// key), with a contiguous copy of their predicates for fast scans.
  struct Bucket {
    std::vector<uint32_t> subs;
    std::vector<Sub> heads;  // begin/end index `preds`
    std::vector<Pred> preds;
  };
  std::vector<Bucket> buckets_;
  /// Event states from base_ on; completed ones are popped from the front.
  std::deque<EventState> events_;
  uint32_t base_ = 0;
  size_t outstanding_ = 0;
  /// Events completed or failed (late deliveries for them are errors).
  std::vector<uint8_t> done_;
  std::unordered_map<uint64_t, std::shared_ptr<const std::vector<uint32_t>>>
      memo_;
  uint64_t deliveries_ = 0;
  uint64_t errors_ = 0;
  std::vector<std::string> messages_;
  std::vector<std::pair<int, int64_t>> scratch_pairs_;
  /// Per connection, the last delivery text already verified and its
  /// event: the next delivery with the same bytes is the same event.
  std::string last_text_[4];
  uint32_t last_event_[4] = {UINT32_MAX, UINT32_MAX, UINT32_MAX, UINT32_MAX};
};

}  // namespace wirebench

#endif  // WIREBENCH_CHECKER_H_
