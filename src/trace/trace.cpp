#include "trace/trace.h"

#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace srm::trace {

// ---------------------------------------------------------------------------
// Schema table — the single source of truth for event names and fields.
// README.md's "Trace schema" section is generated from this table's shape;
// keep them in sync.
// ---------------------------------------------------------------------------

namespace {

const std::vector<EventSpec>& specs() {
  static const std::vector<EventSpec> kSpecs = {
      // type, category, name, a, b, c, d, e, x, y
      {EventType::kSimSchedule, Category::kSim, "sched", "slot", "gen",
       nullptr, nullptr, nullptr, "when", nullptr},
      {EventType::kSimFire, Category::kSim, "fire", "slot", "gen", nullptr,
       nullptr, nullptr, nullptr, nullptr},
      {EventType::kSimCancel, Category::kSim, "cancel", "slot", "gen",
       nullptr, nullptr, nullptr, nullptr, nullptr},

      {EventType::kNetSend, Category::kNet, "send", "group", "kind", "ttl",
       "scope", nullptr, nullptr, nullptr},
      {EventType::kNetDeliver, Category::kNet, "deliver", "group", "kind",
       "from", "hops", nullptr, "delay", nullptr},
      {EventType::kNetDrop, Category::kNet, "drop", "group", "kind",
       "link_to", "link", nullptr, nullptr, nullptr},
      {EventType::kNetPrune, Category::kNet, "prune", "group", "kind",
       "link_to", "ttl", nullptr, nullptr, nullptr},

      {EventType::kSrmLoss, Category::kSrm, "loss", "src", "page_c", "page_n",
       "seq", "via_request", nullptr, "dist"},
      {EventType::kSrmReqTimerSet, Category::kSrm, "req_timer_set", "src",
       "page_c", "page_n", "seq", "backoffs", "delay", "dist"},
      {EventType::kSrmReqFire, Category::kSrm, "req_fire", "src", "page_c",
       "page_n", "seq", "backoffs", nullptr, nullptr},
      {EventType::kSrmReqSend, Category::kSrm, "req_send", "src", "page_c",
       "page_n", "seq", "ttl", "escalated", nullptr},
      {EventType::kSrmReqHear, Category::kSrm, "req_hear", "src", "page_c",
       "page_n", "seq", "requestor", "hops", "ttl"},
      {EventType::kSrmReqBackoff, Category::kSrm, "req_backoff", "src",
       "page_c", "page_n", "seq", "backoffs", "ignored", nullptr},
      {EventType::kSrmRepTimerSet, Category::kSrm, "rep_timer_set", "src",
       "page_c", "page_n", "seq", "requestor", "delay", "dist"},
      {EventType::kSrmRepFire, Category::kSrm, "rep_fire", "src", "page_c",
       "page_n", "seq", nullptr, nullptr, nullptr},
      {EventType::kSrmRepSend, Category::kSrm, "rep_send", "src", "page_c",
       "page_n", "seq", "ttl", "step", "digest"},
      {EventType::kSrmRepHear, Category::kSrm, "rep_hear", "src", "page_c",
       "page_n", "seq", "responder", "hops", "ttl"},
      {EventType::kSrmRepSuppress, Category::kSrm, "rep_suppress", "src",
       "page_c", "page_n", "seq", "responder", nullptr, nullptr},
      {EventType::kSrmRecovered, Category::kSrm, "recovered", "src", "page_c",
       "page_n", "seq", nullptr, "delay", nullptr},
      {EventType::kSrmAbandoned, Category::kSrm, "abandoned", "src", "page_c",
       "page_n", "seq", nullptr, nullptr, nullptr},
      {EventType::kSrmAdaptReq, Category::kSrm, "adapt_req", nullptr, nullptr,
       nullptr, nullptr, nullptr, "c1", "c2"},
      {EventType::kSrmAdaptRep, Category::kSrm, "adapt_rep", nullptr, nullptr,
       nullptr, nullptr, nullptr, "d1", "d2"},
      {EventType::kSrmScopeEscalate, Category::kSrm, "scope_escalate", "src",
       "page_c", "page_n", "seq", "ttl", nullptr, nullptr},
      {EventType::kSrmFecBudgetRaise, Category::kSrm, "fec_budget_raise",
       "src", "page_c", "page_n", nullptr, "k_new", "k_old", "evidence"},
      {EventType::kSrmFecBudgetDecay, Category::kSrm, "fec_budget_decay",
       "src", "page_c", "page_n", nullptr, "k_new", "k_old", "burst"},
      {EventType::kSrmFecParity, Category::kSrm, "fec_parity_send", "src",
       "page_c", "page_n", "seq", "gen", "scheme", "k"},
      {EventType::kSrmFecReconstruct, Category::kSrm, "fec_reconstruct",
       "src", "page_c", "page_n", "seq", "gen", "scheme", "erasures"},

      {EventType::kSrmDataSend, Category::kSrm, "data_send", "src", "page_c",
       "page_n", "seq", nullptr, nullptr, "digest"},
      {EventType::kSrmDataHear, Category::kSrm, "data_hear", "src", "page_c",
       "page_n", "seq", nullptr, nullptr, nullptr},

      {EventType::kFaultLinkDown, Category::kFault, "link_down", "link",
       "end_a", "end_b", nullptr, nullptr, nullptr, nullptr},
      {EventType::kFaultLinkUp, Category::kFault, "link_up", "link", "end_a",
       "end_b", nullptr, nullptr, nullptr, nullptr},
      {EventType::kFaultPartition, Category::kFault, "partition", "ordinal",
       "cut_links", nullptr, nullptr, nullptr, nullptr, nullptr},
      {EventType::kFaultHeal, Category::kFault, "heal", "ordinal",
       "restored_links", nullptr, nullptr, nullptr, nullptr, nullptr},
      {EventType::kFaultJoin, Category::kFault, "member_join", nullptr,
       nullptr, nullptr, nullptr, nullptr, nullptr, nullptr},
      {EventType::kFaultLeave, Category::kFault, "member_leave", nullptr,
       nullptr, nullptr, nullptr, nullptr, nullptr, nullptr},
      {EventType::kFaultCrash, Category::kFault, "member_crash", nullptr,
       nullptr, nullptr, nullptr, nullptr, nullptr, nullptr},
      {EventType::kFaultRejoin, Category::kFault, "member_rejoin", nullptr,
       nullptr, nullptr, nullptr, nullptr, nullptr, nullptr},
      {EventType::kFaultBurstOn, Category::kFault, "burst_on",
       "loss_good_ppm", "loss_bad_ppm", nullptr, nullptr, nullptr, "p_gb",
       "p_bg"},
      {EventType::kFaultBurstOff, Category::kFault, "burst_off", nullptr,
       nullptr, nullptr, nullptr, nullptr, nullptr, nullptr},
  };
  return kSpecs;
}

const std::unordered_map<std::uint16_t, const EventSpec*>& by_type() {
  static const auto* kMap = [] {
    auto* m = new std::unordered_map<std::uint16_t, const EventSpec*>();
    for (const EventSpec& s : specs()) {
      (*m)[static_cast<std::uint16_t>(s.type)] = &s;
    }
    return m;
  }();
  return *kMap;
}

const std::unordered_map<std::string, const EventSpec*>& by_name() {
  static const auto* kMap = [] {
    auto* m = new std::unordered_map<std::string, const EventSpec*>();
    for (const EventSpec& s : specs()) (*m)[s.name] = &s;
    return m;
  }();
  return *kMap;
}

const char* category_name(Category c) {
  switch (c) {
    case Category::kSim:
      return "sim";
    case Category::kNet:
      return "net";
    case Category::kSrm:
      return "srm";
    case Category::kFault:
      return "fault";
  }
  return "?";
}

// Doubles print with enough digits to round-trip exactly (shortest form
// would be nicer; 17 significant digits is sufficient and simple).
void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

const std::vector<EventSpec>& all_specs() { return specs(); }

const EventSpec& spec_of(EventType type) {
  const auto it = by_type().find(static_cast<std::uint16_t>(type));
  if (it == by_type().end()) {
    throw std::out_of_range("trace::spec_of: unknown event type");
  }
  return *it->second;
}

const EventSpec* spec_by_name(const std::string& name) {
  const auto it = by_name().find(name);
  return it == by_name().end() ? nullptr : it->second;
}

Category category_of(EventType type) { return spec_of(type).category; }

// ---------------------------------------------------------------------------
// Mask parsing
// ---------------------------------------------------------------------------

std::uint32_t parse_mask(const std::string& text) {
  if (text.empty() || text == "none") return kMaskNone;
  if (text == "all") return kMaskAll;
  if (text.find_first_not_of("0123456789") == std::string::npos) {
    return static_cast<std::uint32_t>(std::stoul(text)) & kMaskAll;
  }
  std::uint32_t mask = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find_first_of(",+", start);
    const std::string part = text.substr(
        start, end == std::string::npos ? std::string::npos : end - start);
    if (part == "sim") {
      mask |= static_cast<std::uint32_t>(Category::kSim);
    } else if (part == "net") {
      mask |= static_cast<std::uint32_t>(Category::kNet);
    } else if (part == "srm") {
      mask |= static_cast<std::uint32_t>(Category::kSrm);
    } else if (part == "fault") {
      mask |= static_cast<std::uint32_t>(Category::kFault);
    } else if (part == "all") {
      mask |= kMaskAll;
    } else if (!part.empty()) {
      throw std::invalid_argument("trace::parse_mask: unknown category '" +
                                  part + "'");
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return mask;
}

std::string format_mask(std::uint32_t mask) {
  if ((mask & kMaskAll) == 0) return "none";
  std::string out;
  for (Category c :
       {Category::kSim, Category::kNet, Category::kSrm, Category::kFault}) {
    if ((mask & static_cast<std::uint32_t>(c)) == 0) continue;
    if (!out.empty()) out += ',';
    out += category_name(c);
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSONL backend
// ---------------------------------------------------------------------------

std::string JsonlSink::to_line(const Event& event) {
  const EventSpec& spec = spec_of(event.type);
  std::string line;
  line.reserve(160);
  line += "{\"t\":";
  append_double(line, event.t);
  line += ",\"cat\":\"";
  line += category_name(spec.category);
  line += "\",\"ev\":\"";
  line += spec.name;
  line += "\",\"actor\":";
  line += std::to_string(event.actor);
  const auto add_int = [&line](const char* field, std::uint64_t v) {
    if (field == nullptr) return;
    line += ",\"";
    line += field;
    line += "\":";
    line += std::to_string(v);
  };
  add_int(spec.a, event.a);
  add_int(spec.b, event.b);
  add_int(spec.c, event.c);
  add_int(spec.d, event.d);
  add_int(spec.e, event.e);
  const auto add_num = [&line](const char* field, double v) {
    if (field == nullptr) return;
    line += ",\"";
    line += field;
    line += "\":";
    append_double(line, v);
  };
  add_num(spec.x, event.x);
  add_num(spec.y, event.y);
  line += '}';
  return line;
}

void TeeSink::add(Sink* sink, std::uint32_t mask) {
  if (sink == nullptr) {
    throw std::invalid_argument("trace::TeeSink::add: null sink");
  }
  branches_.push_back(Branch{sink, mask});
}

void JsonlSink::on_event(const Event& event) {
  *out_ << to_line(event) << '\n';
}

void JsonlSink::flush() { out_->flush(); }

namespace {

// Minimal parser for the exact object shape to_line() writes: one flat JSON
// object of string/number fields per line.  Not a general JSON parser.
struct LineFields {
  std::unordered_map<std::string, std::string> fields;  // raw value text
};

LineFields parse_line(const std::string& line, std::size_t line_no) {
  LineFields out;
  std::size_t i = line.find('{');
  if (i == std::string::npos) {
    throw std::runtime_error("trace::read_jsonl: line " +
                             std::to_string(line_no) + ": not an object");
  }
  ++i;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ',' || line[i] == ' ')) ++i;
    if (i < line.size() && line[i] == '}') break;
    if (i >= line.size() || line[i] != '"') {
      throw std::runtime_error("trace::read_jsonl: line " +
                               std::to_string(line_no) + ": expected key");
    }
    const std::size_t key_end = line.find('"', i + 1);
    if (key_end == std::string::npos) {
      throw std::runtime_error("trace::read_jsonl: line " +
                               std::to_string(line_no) + ": unterminated key");
    }
    const std::string key = line.substr(i + 1, key_end - i - 1);
    i = key_end + 1;
    if (i >= line.size() || line[i] != ':') {
      throw std::runtime_error("trace::read_jsonl: line " +
                               std::to_string(line_no) + ": expected ':'");
    }
    ++i;
    std::string value;
    if (i < line.size() && line[i] == '"') {
      const std::size_t val_end = line.find('"', i + 1);
      if (val_end == std::string::npos) {
        throw std::runtime_error("trace::read_jsonl: line " +
                                 std::to_string(line_no) +
                                 ": unterminated value");
      }
      value = line.substr(i + 1, val_end - i - 1);
      i = val_end + 1;
    } else {
      const std::size_t val_end = line.find_first_of(",}", i);
      value = line.substr(i, val_end - i);
      i = val_end;
    }
    out.fields[key] = value;
  }
  return out;
}

}  // namespace

std::vector<Event> read_jsonl(std::istream& in) {
  std::vector<Event> events;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const LineFields parsed = parse_line(line, line_no);
    const auto ev = parsed.fields.find("ev");
    if (ev == parsed.fields.end()) {
      throw std::runtime_error("trace::read_jsonl: line " +
                               std::to_string(line_no) + ": missing 'ev'");
    }
    const EventSpec* spec = spec_by_name(ev->second);
    if (spec == nullptr) {
      throw std::runtime_error("trace::read_jsonl: line " +
                               std::to_string(line_no) +
                               ": unknown event '" + ev->second + "'");
    }
    Event e;
    e.type = spec->type;
    const auto get = [&parsed](const char* field) -> const std::string* {
      if (field == nullptr) return nullptr;
      const auto it = parsed.fields.find(field);
      return it == parsed.fields.end() ? nullptr : &it->second;
    };
    if (const std::string* v = get("t")) e.t = std::stod(*v);
    if (const std::string* v = get("actor")) e.actor = std::stoull(*v);
    const auto get_int = [&get](const char* field, std::uint64_t& slot) {
      if (const std::string* v = get(field)) slot = std::stoull(*v);
    };
    get_int(spec->a, e.a);
    get_int(spec->b, e.b);
    get_int(spec->c, e.c);
    get_int(spec->d, e.d);
    get_int(spec->e, e.e);
    if (const std::string* v = get(spec->x)) e.x = std::stod(*v);
    if (const std::string* v = get(spec->y)) e.y = std::stod(*v);
    events.push_back(e);
  }
  return events;
}

// ---------------------------------------------------------------------------
// Binary backend
// ---------------------------------------------------------------------------

namespace {

constexpr char kBinaryMagic[6] = {'S', 'R', 'M', 'T', 'R', 'C'};
// Version 2 added data_send/data_hear and the hops, ttl, step and digest
// slots the conformance fold reads.
constexpr std::uint8_t kBinaryVersion = 2;
// type(2) + t(8) + actor(8) + a..e(40) + x,y(16)
constexpr std::size_t kRecordBytes = 74;

void put_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

void put_f64(char* p, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(p, bits);
}

double get_f64(const char* p) {
  const std::uint64_t bits = get_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

BinarySink::BinarySink(std::ostream& out) : out_(&out) {
  char header[8];
  std::memcpy(header, kBinaryMagic, 6);
  header[6] = static_cast<char>(kBinaryVersion);
  header[7] = 0;
  out_->write(header, sizeof(header));
}

void BinarySink::on_event(const Event& event) {
  char rec[kRecordBytes];
  const auto type = static_cast<std::uint16_t>(event.type);
  rec[0] = static_cast<char>(type & 0xFF);
  rec[1] = static_cast<char>(type >> 8);
  put_f64(rec + 2, event.t);
  put_u64(rec + 10, event.actor);
  put_u64(rec + 18, event.a);
  put_u64(rec + 26, event.b);
  put_u64(rec + 34, event.c);
  put_u64(rec + 42, event.d);
  put_u64(rec + 50, event.e);
  put_f64(rec + 58, event.x);
  put_f64(rec + 66, event.y);
  out_->write(rec, sizeof(rec));
}

void BinarySink::flush() { out_->flush(); }

std::vector<Event> read_binary(std::istream& in) {
  char header[8];
  in.read(header, sizeof(header));
  if (in.gcount() != sizeof(header) ||
      std::memcmp(header, kBinaryMagic, 6) != 0) {
    throw std::runtime_error("trace::read_binary: bad magic");
  }
  if (static_cast<std::uint8_t>(header[6]) != kBinaryVersion) {
    throw std::runtime_error("trace::read_binary: unsupported version");
  }
  std::vector<Event> events;
  char rec[kRecordBytes];
  for (;;) {
    in.read(rec, sizeof(rec));
    if (in.gcount() == 0) break;
    if (in.gcount() != static_cast<std::streamsize>(sizeof(rec))) {
      throw std::runtime_error("trace::read_binary: truncated record");
    }
    Event e;
    const auto type = static_cast<std::uint16_t>(
        static_cast<unsigned char>(rec[0]) |
        (static_cast<unsigned char>(rec[1]) << 8));
    e.type = static_cast<EventType>(type);
    spec_of(e.type);  // validates the type
    e.t = get_f64(rec + 2);
    e.actor = get_u64(rec + 10);
    e.a = get_u64(rec + 18);
    e.b = get_u64(rec + 26);
    e.c = get_u64(rec + 34);
    e.d = get_u64(rec + 42);
    e.e = get_u64(rec + 50);
    e.x = get_f64(rec + 58);
    e.y = get_f64(rec + 66);
    events.push_back(e);
  }
  return events;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer& Tracer::null() {
  static Tracer instance;
  return instance;
}

void Tracer::set_mask(std::uint32_t mask) {
  if (this == &null()) {
    throw std::logic_error("trace::Tracer::null() is immutable");
  }
  mask_.store(mask & kMaskAll, std::memory_order_relaxed);
}

void Tracer::set_sink(Sink* sink) {
  if (this == &null()) {
    throw std::logic_error("trace::Tracer::null() is immutable");
  }
  sink_ = sink;
}

}  // namespace srm::trace
