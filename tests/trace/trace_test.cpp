// Core tracing-layer tests: schema integrity, mask parsing, the
// zero-emission guarantee when disabled, category filtering, and lossless
// JSONL / binary round-trips.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/loss_round.h"
#include "harness/session.h"
#include "topo/builders.h"
#include "trace/trace.h"

namespace srm::trace {
namespace {

std::vector<net::NodeId> all_nodes(std::size_t n) {
  std::vector<net::NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<net::NodeId>(i);
  return v;
}

SrmConfig deterministic_config() {
  SrmConfig cfg;
  cfg.timers = TimerParams{1.0, 0.0, 1.0, 0.0};
  return cfg;
}

harness::RoundResult run_traced_chain_round(Tracer& tracer) {
  harness::SimSession s(topo::make_chain(8), all_nodes(8),
                        {deterministic_config(), 1, 1});
  s.set_tracer(&tracer);
  harness::RoundSpec spec;
  spec.source_node = 0;
  spec.congested = harness::DirectedLink{3, 4};
  spec.page = PageId{0, 0};
  return harness::run_loss_round(s, spec, 0);
}

// One synthetic event per type, with every slot populated so round-trips
// exercise all fields (unused slots are dropped by JSONL by design; they are
// zeroed here so Event equality still holds after a JSONL round-trip).
std::vector<Event> sample_events() {
  std::vector<Event> events;
  std::uint64_t n = 1;
  for (const EventSpec& spec : all_specs()) {
    Event e;
    e.type = spec.type;
    e.t = 0.125 * static_cast<double>(n);
    e.actor = 100 + n;
    if (spec.a != nullptr) e.a = n + 1;
    if (spec.b != nullptr) e.b = n + 2;
    if (spec.c != nullptr) e.c = n + 3;
    if (spec.d != nullptr) e.d = n + 4;
    if (spec.e != nullptr) e.e = n + 5;
    if (spec.x != nullptr) e.x = 0.1 + static_cast<double>(n) / 3.0;
    if (spec.y != nullptr) e.y = 1e-9 * static_cast<double>(n);
    events.push_back(e);
    ++n;
  }
  return events;
}

// --- schema ------------------------------------------------------------------

TEST(TraceSchemaTest, EveryTypeHasASpecAndRoundTripsByName) {
  ASSERT_FALSE(all_specs().empty());
  for (const EventSpec& spec : all_specs()) {
    const EventSpec& by_type = spec_of(spec.type);
    EXPECT_STREQ(by_type.name, spec.name);
    const EventSpec* by_name = spec_by_name(spec.name);
    ASSERT_NE(by_name, nullptr) << spec.name;
    EXPECT_EQ(by_name->type, spec.type);
    EXPECT_EQ(category_of(spec.type), spec.category);
  }
}

TEST(TraceSchemaTest, UnknownLookupsFailCleanly) {
  EXPECT_THROW(spec_of(static_cast<EventType>(9999)), std::out_of_range);
  EXPECT_EQ(spec_by_name("no_such_event"), nullptr);
}

// --- masks -------------------------------------------------------------------

TEST(TraceMaskTest, ParseAndFormat) {
  EXPECT_EQ(parse_mask("none"), kMaskNone);
  EXPECT_EQ(parse_mask(""), kMaskNone);
  EXPECT_EQ(parse_mask("all"), kMaskAll);
  EXPECT_EQ(parse_mask("srm"), static_cast<std::uint32_t>(Category::kSrm));
  EXPECT_EQ(parse_mask("sim,net"),
            static_cast<std::uint32_t>(Category::kSim) |
                static_cast<std::uint32_t>(Category::kNet));
  EXPECT_EQ(parse_mask("net+srm"),
            static_cast<std::uint32_t>(Category::kNet) |
                static_cast<std::uint32_t>(Category::kSrm));
  EXPECT_EQ(parse_mask("fault"),
            static_cast<std::uint32_t>(Category::kFault));
  EXPECT_EQ(parse_mask("15"), kMaskAll);
  EXPECT_THROW(parse_mask("bogus"), std::invalid_argument);

  EXPECT_EQ(format_mask(kMaskNone), "none");
  EXPECT_EQ(format_mask(kMaskAll), "sim,net,srm,fault");
  EXPECT_EQ(format_mask(parse_mask("srm")), "srm");
  EXPECT_EQ(parse_mask(format_mask(parse_mask("sim,srm"))),
            parse_mask("sim,srm"));
}

// --- tracer gating -----------------------------------------------------------

TEST(TracerTest, DisabledMaskEmitsNothing) {
  // Full instrumented loss round with a sink attached but the mask zero:
  // the sink must see no events at all.
  VectorSink sink;
  Tracer tracer;
  tracer.set_sink(&sink);
  tracer.set_mask(kMaskNone);
  const auto r = run_traced_chain_round(tracer);
  EXPECT_EQ(r.recovered, r.affected);  // the round itself worked
  EXPECT_TRUE(sink.events().empty());
}

TEST(TracerTest, MaskSelectsCategories) {
  VectorSink sink;
  Tracer tracer;
  tracer.set_sink(&sink);
  tracer.set_mask(static_cast<std::uint32_t>(Category::kSrm));
  run_traced_chain_round(tracer);
  ASSERT_FALSE(sink.events().empty());
  for (const Event& e : sink.events()) {
    EXPECT_EQ(category_of(e.type), Category::kSrm);
  }

  sink.clear();
  tracer.set_mask(kMaskAll);
  run_traced_chain_round(tracer);
  bool saw_sim = false, saw_net = false, saw_srm = false;
  for (const Event& e : sink.events()) {
    switch (category_of(e.type)) {
      case Category::kSim: saw_sim = true; break;
      case Category::kNet: saw_net = true; break;
      case Category::kSrm: saw_srm = true; break;
      case Category::kFault: break;  // the round injects no faults
    }
  }
  EXPECT_TRUE(saw_sim);
  EXPECT_TRUE(saw_net);
  EXPECT_TRUE(saw_srm);
}

TEST(TracerTest, NullTracerIsImmutableAndDisabled) {
  Tracer& null = Tracer::null();
  EXPECT_FALSE(null.wants(Category::kSim));
  EXPECT_FALSE(null.wants(Category::kNet));
  EXPECT_FALSE(null.wants(Category::kSrm));
  EXPECT_THROW(null.set_mask(kMaskAll), std::logic_error);
  VectorSink sink;
  EXPECT_THROW(null.set_sink(&sink), std::logic_error);
}

// --- backends ----------------------------------------------------------------

TEST(TraceBackendTest, JsonlRoundTripsEveryEventType) {
  const std::vector<Event> events = sample_events();
  std::ostringstream out;
  JsonlSink sink(out);
  for (const Event& e : events) sink.on_event(e);
  std::istringstream in(out.str());
  EXPECT_EQ(read_jsonl(in), events);
}

TEST(TraceBackendTest, BinaryRoundTripsEveryEventType) {
  const std::vector<Event> events = sample_events();
  std::ostringstream out(std::ios::binary);
  BinarySink sink(out);
  for (const Event& e : events) sink.on_event(e);
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_EQ(read_binary(in), events);
}

TEST(TraceBackendTest, JsonlLinesNameOnlySchemaFields) {
  Event e;
  e.type = EventType::kSrmReqSend;
  e.t = 3.25;
  e.actor = 4;
  e.d = 7;
  e.e = 255;
  const std::string line = JsonlSink::to_line(e);
  EXPECT_NE(line.find("\"ev\":\"req_send\""), std::string::npos);
  EXPECT_NE(line.find("\"cat\":\"srm\""), std::string::npos);
  EXPECT_NE(line.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(line.find("\"ttl\":255"), std::string::npos);
  // kSrmReqSend has no y slot; no spurious fields appear.
  EXPECT_EQ(line.find("\"y\":"), std::string::npos);
}

TEST(TraceBackendTest, ReadersRejectMalformedInput) {
  std::istringstream bad_json("{\"t\":1,\"ev\":\"no_such_event\"}\n");
  EXPECT_THROW(read_jsonl(bad_json), std::runtime_error);
  std::istringstream bad_magic("NOTSRM\x01\x00");
  EXPECT_THROW(read_binary(bad_magic), std::runtime_error);
}

}  // namespace
}  // namespace srm::trace
