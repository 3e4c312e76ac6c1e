#include "checker.h"

#include <algorithm>
#include <charconv>

namespace wirebench {

namespace {

constexpr uint8_t kUnsent = 0;
constexpr uint8_t kOutstanding = 1;
constexpr uint8_t kCompleted = 2;
constexpr uint8_t kFailed = 3;
constexpr size_t kMaxMessages = 20;

/// The seq value of an event text ("..., seq = N"), or -1.
int64_t SeqOf(std::string_view text) {
  const size_t pos = text.rfind("seq = ");
  if (pos == std::string_view::npos) return -1;
  if (pos != 0 && (pos < 2 || text.substr(pos - 2, 2) != ", ")) return -1;
  int64_t seq = -1;
  const char* first = text.data() + pos + 6;
  const char* last = text.data() + text.size();
  while (first < last && *first == ' ') ++first;
  auto [ptr, ec] = std::from_chars(first, last, seq);
  if (ec != std::errc()) return -1;
  while (ptr < last && (*ptr == ' ' || *ptr == '\r')) ++ptr;
  if (ptr != last && *ptr != ',') return -1;
  return seq;
}

}  // namespace

Checker::Checker(const Workload* workload) : w_(workload) {
  buckets_.resize(std::max(1, w_->num_keys()));
  const WorkloadParams& p = w_->params();
  double distinct = 1;
  bool fits = p.num_attrs * 5 <= 64;
  for (int hi : p.event_hi) {
    distinct *= hi;
    fits = fits && hi < 32;
  }
  memo_enabled_ = p.churn_per_event == 0 && fits && distinct <= 65536;
}

Checker::SubState& Checker::State(uint32_t sub) {
  if (sub >= subs_.size()) subs_.resize(sub + 1);
  return subs_[sub];
}

uint64_t Checker::ServerId(uint32_t sub) const {
  return sub < subs_.size() ? subs_[sub].server_id : 0;
}

void Checker::Error(uint32_t event, const std::string& message) {
  ++errors_;
  if (messages_.size() < kMaxMessages) messages_.push_back(message);
  if (event < done_.size() && done_[event] == kOutstanding) {
    done_[event] = kFailed;
    if (EventState* st = Find(event)) st->live = false;
    --outstanding_;
    while (!events_.empty() && !events_.front().live) {
      events_.pop_front();
      ++base_;
    }
  }
}

void Checker::Fail(const std::string& message) {
  Error(UINT32_MAX, message);
}

void Checker::SubSent(int conn, uint32_t sub, int64_t t) {
  if (log) log->push_back({Record::kSubSent, uint8_t(conn), sub, 0, t, {}});
  ++seq_;
  SubState& ss = State(sub);
  if (ss.sent != kNeverSeq) {
    Fail("subscription " + std::to_string(sub) + " sent twice");
    return;
  }
  ss.sent = seq_;
  Sub head = w_->sub(sub);
  Bucket& b = buckets_[head.key < 0 ? 0 : head.key];
  const Pred* preds = w_->preds(sub);
  const uint32_t n = head.end - head.begin;
  head.begin = static_cast<uint32_t>(b.preds.size());
  head.end = head.begin + n;
  b.preds.insert(b.preds.end(), preds, preds + n);
  b.heads.push_back(head);
  b.subs.push_back(sub);
  PopulationChanged();
}

void Checker::SubAck(int conn, uint32_t sub, uint64_t server_id, int64_t t) {
  if (log) {
    log->push_back({Record::kSubAck, uint8_t(conn), sub, server_id, t, {}});
  }
  ++seq_;
  SubState& ss = State(sub);
  if (ss.sent == kNeverSeq || ss.acked != kNeverSeq) {
    Fail("SUB reply for subscription " + std::to_string(sub) +
         " that is not pending");
    return;
  }
  if (server_id == 0 || server_id > 64 * (subs_.size() + 1024)) {
    Fail("SUB reply carries an implausible id " + std::to_string(server_id));
    return;
  }
  if (server_id >= by_server_id_.size()) {
    by_server_id_.resize(std::max<size_t>(server_id + 1,
                                          by_server_id_.size() * 2));
  }
  if (by_server_id_[server_id] != 0) {
    Fail("server id " + std::to_string(server_id) + " assigned twice");
    return;
  }
  by_server_id_[server_id] = sub + 1;
  ss.server_id = server_id;
  ss.acked = seq_;
  PopulationChanged();
}

void Checker::UnsubSent(int conn, uint32_t sub, int64_t t) {
  if (log) log->push_back({Record::kUnsubSent, uint8_t(conn), sub, 0, t, {}});
  ++seq_;
  SubState& ss = State(sub);
  if (ss.acked == kNeverSeq || ss.unsub_sent != kNeverSeq) {
    Fail("UNSUB of subscription " + std::to_string(sub) +
         " that is not live");
    return;
  }
  ss.unsub_sent = seq_;
  PopulationChanged();
}

void Checker::UnsubAck(int conn, uint32_t sub, int64_t t) {
  if (log) log->push_back({Record::kUnsubAck, uint8_t(conn), sub, 0, t, {}});
  ++seq_;
  SubState& ss = State(sub);
  if (ss.unsub_sent == kNeverSeq || ss.unsub_acked != kNeverSeq) {
    Fail("UNSUB reply for subscription " + std::to_string(sub) +
         " that is not pending");
    return;
  }
  ss.unsub_acked = seq_;
}

Checker::EventState* Checker::Find(uint32_t event) {
  if (event < base_ || event - base_ >= events_.size()) return nullptr;
  return &events_[event - base_];
}

void Checker::PubSent(int conn, uint32_t event, int64_t t) {
  if (log) log->push_back({Record::kPubSent, uint8_t(conn), event, 0, t, {}});
  ++seq_;
  if (event < done_.size() && done_[event] != kUnsent) {
    Fail("event " + std::to_string(event) + " sent twice");
    return;
  }
  if (event >= done_.size()) done_.resize(event + 1, kUnsent);
  while (base_ + events_.size() <= event) events_.emplace_back();
  EventState& st = events_[event - base_];
  st.live = true;
  st.sent = seq_;
  done_[event] = kOutstanding;
  ++outstanding_;
}

std::shared_ptr<const std::vector<uint32_t>> Checker::MustSet(
    uint32_t event, const EventState& st) {
  uint64_t memo_key = 0;
  const bool memo = memo_enabled_;
  if (memo) {
    // Exact key: 5 bits per attribute value.
    const int16_t* ev = w_->event(event);
    for (int a = 0; a < w_->num_attrs(); ++a) {
      memo_key = (memo_key << 5) | static_cast<uint64_t>(ev[a] & 31);
    }
    auto it = memo_.find(memo_key);
    if (it != memo_.end()) return it->second;
  }
  auto must = std::make_shared<std::vector<uint32_t>>();
  const int32_t key = w_->EventKey(event);
  const Bucket& b = buckets_[key < 0 ? 0 : key];
  const int16_t* ev = w_->event(event);
  for (size_t i = 0; i < b.subs.size(); ++i) {
    const Sub& head = b.heads[i];
    if (!Workload::Matches(head, &b.preds[head.begin], ev)) continue;
    // Acked before the event was sent, and its UNSUB not yet sent now
    // that the reply has arrived.
    const SubState& ss = subs_[b.subs[i]];
    if (ss.acked < st.sent && ss.unsub_sent == kNeverSeq) {
      must->push_back(b.subs[i]);
    }
  }
  std::sort(must->begin(), must->end());
  if (memo) memo_.emplace(memo_key, must);
  return must;
}

void Checker::PubReply(int conn, uint32_t event, uint64_t matches, int64_t t) {
  if (log) {
    log->push_back({Record::kPubReply, uint8_t(conn), event, matches, t, {}});
  }
  ++seq_;
  if (event < done_.size() && done_[event] == kFailed) return;  // reported
  EventState* st = Find(event);
  if (st == nullptr || !st->live || st->replied != kNeverSeq) {
    Fail("PUB reply for event " + std::to_string(event) +
         " that is not pending");
    return;
  }
  st->replied = seq_;
  st->matches = matches;
  st->must = MustSet(event, *st);
  if (w_->params().churn_per_event == 0 && matches != st->must->size()) {
    Error(event, "event " + std::to_string(event) + ": reply reports " +
                     std::to_string(matches) + " matches, reference expects " +
                     std::to_string(st->must->size()));
    return;
  }
  if (st->must->size() > matches) {
    Error(event, "event " + std::to_string(event) + ": reply reports " +
                     std::to_string(matches) + " matches, below the " +
                     std::to_string(st->must->size()) +
                     " subscriptions that must receive it");
    return;
  }
  // Deliveries that arrived before the reply were checked then; the rule
  // that needs the reply's position is re-checked here.
  for (uint32_t s : st->received) {
    if (subs_[s].sent > st->replied) {
      Error(event, "delivery to a subscription sent after the reply");
      return;
    }
  }
  MaybeComplete(event, st, t);
}

void Checker::Delivery(int conn, uint64_t server_sub, std::string_view text,
                       int64_t t) {
  if (log) {
    log->push_back({Record::kDelivery, uint8_t(conn), 0, server_sub, t,
                    std::string(text)});
  }
  ++seq_;
  ++deliveries_;
  const bool same_text =
      conn >= 0 && conn < 4 && last_event_[conn] != UINT32_MAX &&
      text == last_text_[conn];
  const int64_t seq = same_text ? last_event_[conn] : SeqOf(text);
  if (seq < 0 || static_cast<uint64_t>(seq) >= done_.size() ||
      done_[seq] == kUnsent) {
    Fail("delivery with no sent event in its text: " +
         std::string(text.substr(0, 80)));
    return;
  }
  const uint32_t event = static_cast<uint32_t>(seq);
  if (done_[event] == kFailed) return;  // already reported
  if (done_[event] == kCompleted) {
    Fail("duplicate or extra delivery of event " + std::to_string(event) +
         " after all its deliveries arrived");
    return;
  }
  EventState* st = Find(event);
  if (server_sub >= by_server_id_.size() || by_server_id_[server_sub] == 0) {
    Error(event, "delivery to unknown subscription id " +
                     std::to_string(server_sub));
    return;
  }
  const uint32_t sub = by_server_id_[server_sub] - 1;
  if (w_->sub(sub).conn != conn) {
    Error(event, "delivery of event " + std::to_string(event) +
                     " for subscription " + std::to_string(sub) +
                     " on foreign connection " + std::to_string(conn));
    return;
  }
  if (same_text) {
    // Byte-equal to a delivery of this event already verified below.
  } else if (st->text.empty()) {
    // First delivery: the text must parse back to the published pairs.
    const size_t want_pairs = static_cast<size_t>(w_->num_attrs()) + 1;
    bool same = ParseEventText(*w_, text, &scratch_pairs_) &&
                scratch_pairs_.size() == want_pairs;
    std::vector<bool> seen(w_->num_attrs() + 1, false);
    const int16_t* ev = w_->event(event);
    for (size_t i = 0; same && i < scratch_pairs_.size(); ++i) {
      const auto [attr, value] = scratch_pairs_[i];
      const int slot = attr == Workload::kSeqAttr ? w_->num_attrs() : attr;
      const int64_t want = attr == Workload::kSeqAttr ? event : ev[attr];
      same = !seen[slot] && value == want;
      seen[slot] = true;
    }
    if (!same) {
      Error(event, "event " + std::to_string(event) +
                       " text does not parse back to the published pairs: " +
                       std::string(text.substr(0, 120)));
      return;
    }
    st->text.assign(text);
  } else if (text != st->text) {
    Error(event, "event " + std::to_string(event) +
                     " text differs between deliveries");
    return;
  }
  if (!same_text && conn >= 0 && conn < 4) {
    last_text_[conn].assign(text);
    last_event_[conn] = event;
  }
  if (!w_->Matches(sub, event)) {
    Error(event, "unsound delivery: subscription " + std::to_string(sub) +
                     " does not match event " + std::to_string(event));
    return;
  }
  const SubState& ss = subs_[sub];
  if (ss.unsub_acked < st->sent) {
    Error(event, "delivery of event " + std::to_string(event) +
                     " to subscription " + std::to_string(sub) +
                     " sent after its UNSUB was acknowledged");
    return;
  }
  if (st->replied != kNeverSeq && ss.sent > st->replied) {
    Error(event, "delivery to a subscription sent after the reply");
    return;
  }
  st->received.push_back(sub);
  MaybeComplete(event, st, t);
}

void Checker::MaybeComplete(uint32_t event, EventState* st, int64_t t) {
  if (st->replied == kNeverSeq || st->received.size() < st->matches) return;
  std::vector<uint32_t>& got = st->received;
  std::sort(got.begin(), got.end());
  if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
    Error(event, "duplicate delivery of event " + std::to_string(event));
    return;
  }
  if (got.size() > st->matches) {
    Error(event, "event " + std::to_string(event) + ": " +
                     std::to_string(got.size()) +
                     " deliveries for a reply of " +
                     std::to_string(st->matches) + " matches");
    return;
  }
  for (uint32_t s : *st->must) {
    if (!std::binary_search(got.begin(), got.end(), s)) {
      Error(event, "event " + std::to_string(event) +
                       " missing its delivery to subscription " +
                       std::to_string(s));
      return;
    }
  }
  done_[event] = kCompleted;
  st->live = false;
  st->received = {};
  st->text = {};
  st->must.reset();
  --outstanding_;
  if (on_complete) on_complete(event, t);
  while (!events_.empty() && !events_.front().live) {
    events_.pop_front();
    ++base_;
  }
}

void Checker::Finish() {
  for (uint32_t e = base_; e < base_ + events_.size(); ++e) {
    EventState* st = Find(e);
    if (st == nullptr || !st->live) continue;
    Error(e, "event " + std::to_string(e) + " incomplete: " +
                 (st->replied == kNeverSeq
                      ? std::string("no reply")
                      : std::to_string(st->received.size()) + " of " +
                            std::to_string(st->matches) + " deliveries"));
  }
}

void Checker::Apply(const Record& r) {
  switch (r.kind) {
    case Record::kSubSent: SubSent(r.conn, r.index, r.t); break;
    case Record::kSubAck: SubAck(r.conn, r.index, r.number, r.t); break;
    case Record::kUnsubSent: UnsubSent(r.conn, r.index, r.t); break;
    case Record::kUnsubAck: UnsubAck(r.conn, r.index, r.t); break;
    case Record::kPubSent: PubSent(r.conn, r.index, r.t); break;
    case Record::kPubReply: PubReply(r.conn, r.index, r.number, r.t); break;
    case Record::kDelivery: Delivery(r.conn, r.number, r.text, r.t); break;
  }
}

}  // namespace wirebench
