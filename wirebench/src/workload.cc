#include "workload.h"

#include <charconv>

namespace wirebench {

namespace {

const char* OpText(Op op) {
  switch (op) {
    case Op::kEq: return "=";
    case Op::kNe: return "!=";
    case Op::kLt: return "<";
    case Op::kLe: return "<=";
    case Op::kGt: return ">";
    case Op::kGe: return ">=";
  }
  return "?";
}

/// `k` distinct values drawn from [lo, hi), in draw order.
std::vector<int> DistinctAttrs(Rng* rng, int lo, int hi, int k) {
  std::vector<int> pool;
  for (int a = lo; a < hi; ++a) pool.push_back(a);
  for (int i = 0; i < k; ++i) {
    const int j = i + static_cast<int>(rng->Next() % (pool.size() - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

}  // namespace

Workload::Workload(WorkloadParams params, uint64_t seed)
    : params_(std::move(params)),
      sub_rng_(seed * 2 + 1),
      event_rng_(seed * 2 + 2) {
  for (int a = 0; a < params_.num_attrs; ++a) {
    attr_names_.push_back(params_.attr_prefix + std::to_string(a));
  }
}

uint32_t Workload::NewSub(int conn) {
  Sub s;
  s.begin = static_cast<uint32_t>(preds_.size());
  s.conn = static_cast<uint8_t>(conn);
  auto add = [this](int attr, Op op, int value) {
    preds_.push_back(Pred{static_cast<uint16_t>(attr), op, value});
  };
  Rng& r = sub_rng_;
  if (params_.name == "wire_match") {
    // Paper Table 1 W0 shape: n_P = 5, the first two on the fixed
    // attributes, all equality, values narrowed to [1, 8].
    const int v0 = static_cast<int>(r.Uniform(1, 8));
    const int v1 = static_cast<int>(r.Uniform(1, 8));
    add(0, Op::kEq, v0);
    add(1, Op::kEq, v1);
    for (int a : DistinctAttrs(&r, 2, params_.num_attrs, 3)) {
      add(a, Op::kEq, static_cast<int>(r.Uniform(1, 8)));
    }
    s.key = (v0 - 1) * params_.key_domain + (v1 - 1);
  } else if (params_.name == "wire_fanout") {
    // Two equalities, one half-domain range and one != on four of six
    // attributes with domain [1, 4]: about 1/43 of the population matches.
    std::vector<int> attrs = DistinctAttrs(&r, 0, params_.num_attrs, 4);
    add(attrs[0], Op::kEq, static_cast<int>(r.Uniform(1, 4)));
    add(attrs[1], Op::kEq, static_cast<int>(r.Uniform(1, 4)));
    static constexpr Op kRangeOps[] = {Op::kLe, Op::kLt, Op::kGe, Op::kGt};
    static constexpr int kRangeValues[] = {2, 3, 3, 2};
    const int k = static_cast<int>(r.Next() % 4);
    add(attrs[2], kRangeOps[k], kRangeValues[k]);
    add(attrs[3], Op::kNe, static_cast<int>(r.Uniform(1, 4)));
  } else {
    // wire_churn: c0 = v AND c1 = w AND (x = . OR y = .) AND z != . AND
    // t <= u <= t+3 — fixed equalities, an OR that expands to two
    // disjuncts, a != and a two-sided range.
    const int v0 = static_cast<int>(r.Uniform(1, params_.key_domain));
    const int v1 = static_cast<int>(r.Uniform(1, params_.key_domain));
    add(0, Op::kEq, v0);
    add(1, Op::kEq, v1);
    std::vector<int> attrs = DistinctAttrs(&r, 2, params_.num_attrs, 4);
    add(attrs[0], Op::kEq, static_cast<int>(r.Uniform(1, 16)));
    add(attrs[1], Op::kEq, static_cast<int>(r.Uniform(1, 16)));
    s.or_begin = 2;
    s.or_end = 4;
    add(attrs[2], Op::kNe, static_cast<int>(r.Uniform(1, 16)));
    const int lo = static_cast<int>(r.Uniform(1, 13));
    add(attrs[3], Op::kGe, lo);
    add(attrs[3], Op::kLe, lo + 3);
    s.key = (v0 - 1) * params_.key_domain + (v1 - 1);
  }
  s.end = static_cast<uint32_t>(preds_.size());
  subs_.push_back(s);
  return static_cast<uint32_t>(subs_.size() - 1);
}

uint32_t Workload::NewEvent() {
  for (int a = 0; a < params_.num_attrs; ++a) {
    events_.push_back(
        static_cast<int16_t>(event_rng_.Uniform(1, params_.event_hi[a])));
  }
  return static_cast<uint32_t>(num_events() - 1);
}

int32_t Workload::EventKey(uint32_t e) const {
  if (params_.key_domain == 0) return -1;
  const int16_t* ev = event(e);
  return (ev[0] - 1) * params_.key_domain + (ev[1] - 1);
}

namespace {

bool PredHolds(const Pred& p, const int16_t* ev) {
  const int v = ev[p.attr];
  switch (p.op) {
    case Op::kEq: return v == p.value;
    case Op::kNe: return v != p.value;
    case Op::kLt: return v < p.value;
    case Op::kLe: return v <= p.value;
    case Op::kGt: return v > p.value;
    case Op::kGe: return v >= p.value;
  }
  return false;
}

}  // namespace

bool Workload::Matches(const Sub& s, const Pred* preds, const int16_t* ev) {
  const uint32_t n = s.end - s.begin;
  // One disjunct per OR alternative: the AND items plus that alternative.
  const uint32_t alternatives =
      s.or_end > s.or_begin ? s.or_end - s.or_begin : 1;
  for (uint32_t alt = 0; alt < alternatives; ++alt) {
    bool all = true;
    for (uint32_t i = 0; i < n && all; ++i) {
      const bool in_group = i >= s.or_begin && i < s.or_end;
      if (in_group && i != s.or_begin + alt) continue;
      all = PredHolds(preds[i], ev);
    }
    if (all) return true;
  }
  return false;
}

std::string Workload::SubText(uint32_t si) const {
  const Sub& s = subs_[si];
  std::string out;
  const uint32_t n = s.end - s.begin;
  for (uint32_t i = 0; i < n; ++i) {
    const Pred& p = preds_[s.begin + i];
    const bool in_group = i >= s.or_begin && i < s.or_end;
    if (i > 0) out += (in_group && i != s.or_begin) ? " OR " : " AND ";
    if (in_group && i == s.or_begin) out += "(";
    out += attr_names_[p.attr];
    out += ' ';
    out += OpText(p.op);
    out += ' ';
    out += std::to_string(p.value);
    if (in_group && i + 1 == s.or_end) out += ")";
  }
  return out;
}

std::string Workload::EventText(uint32_t e) const {
  const int16_t* ev = event(e);
  std::string out;
  out.reserve(static_cast<size_t>(params_.num_attrs) * 9 + 16);
  for (int a = 0; a < params_.num_attrs; ++a) {
    out += attr_names_[a];
    out += " = ";
    out += std::to_string(ev[a]);
    out += ", ";
  }
  out += "seq = ";
  out += std::to_string(e);
  return out;
}

int Workload::AttrIndex(std::string_view name) const {
  if (name == "seq") return kSeqAttr;
  if (name.size() <= params_.attr_prefix.size() ||
      name.substr(0, params_.attr_prefix.size()) != params_.attr_prefix) {
    return -1;
  }
  int a = -1;
  const char* first = name.data() + params_.attr_prefix.size();
  const char* last = name.data() + name.size();
  auto [ptr, ec] = std::from_chars(first, last, a);
  if (ec != std::errc() || ptr != last || a < 0 || a >= params_.num_attrs) {
    return -1;
  }
  return a;
}

bool ParseEventText(const Workload& w, std::string_view text,
                    std::vector<std::pair<int, int64_t>>* pairs) {
  pairs->clear();
  auto trim = [](std::string_view s) {
    while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\r')) {
      s.remove_suffix(1);
    }
    return s;
  };
  while (!text.empty()) {
    const size_t comma = text.find(',');
    std::string_view part = trim(text.substr(0, comma));
    text = comma == std::string_view::npos ? std::string_view()
                                           : text.substr(comma + 1);
    const size_t eq = part.find('=');
    if (eq == std::string_view::npos) return false;
    const int attr = w.AttrIndex(trim(part.substr(0, eq)));
    std::string_view value = trim(part.substr(eq + 1));
    int64_t v = 0;
    auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), v);
    if (attr < 0 || ec != std::errc() || ptr != value.data() + value.size()) {
      return false;
    }
    pairs->emplace_back(attr, v);
  }
  return true;
}

bool LookupWorkload(const std::string& name, bool small, WorkloadParams* out) {
  WorkloadParams p;
  p.name = name;
  if (name == "wire_match") {
    p.attr_prefix = "a";
    p.num_attrs = 32;
    p.event_hi.assign(32, 8);
    p.key_domain = 8;
    const size_t per_conn = small ? 2000 : 33334;
    p.population[0] = p.population[1] = p.population[2] = per_conn;
    p.open_rate = small ? 200 : 1000;
  } else if (name == "wire_fanout") {
    p.attr_prefix = "g";
    p.num_attrs = 6;
    p.event_hi.assign(6, 4);
    const size_t per_conn = small ? 300 : 1667;
    p.population[0] = p.population[1] = p.population[2] = per_conn;
    p.open_rate = small ? 200 : 2000;
    p.setups = 11;  // a load takes ~40 ms: more of them steady the median
  } else if (name == "wire_churn") {
    p.attr_prefix = "c";
    p.num_attrs = 10;
    p.event_hi.assign(10, 16);
    p.event_hi[0] = p.event_hi[1] = 8;
    p.key_domain = 8;
    p.population[0] = small ? 1000 : 16000;
    p.population[1] = p.population[2] = small ? 300 : 4000;
    p.open_rate = small ? 200 : 500;
    p.pub_conns = {0, 2, 3};  // connection 1 churns
    p.churn_per_event = 8;
  } else {
    return false;
  }
  if (small) p.setups = 1;
  *out = std::move(p);
  return true;
}

}  // namespace wirebench
