// Ablation: parity-based local repair (the FEC direction of Sec. VII-B).
//
// A 20-member tree session streams ADUs through a lossy link.  Without
// parity, every loss costs a request + repair round (control traffic and a
// recovery delay of a couple RTT).  With one XOR parity ADU per k data ADUs
// (fec::FecSession with its budget pinned at K = 1), isolated losses are
// rebuilt locally: control traffic drops sharply at the cost of 1/k extra
// data bandwidth.
#include <cstdint>
#include <memory>

#include "common.h"
#include "srm/fec/session.h"

int main(int argc, char** argv) {
  using namespace srm;
  const util::Flags flags(argc, argv);
  const std::uint64_t seed = flags.get_seed(42);
  const int adus = static_cast<int>(flags.get_int("adus", 200));
  const double loss = flags.get_double("loss", 0.1);

  bench::print_header(
      "Ablation: parity (FEC) local repair vs pure request/repair", seed,
      std::to_string(adus) + " ADUs through a link with " +
          util::Table::num(loss * 100, 0) + "% data loss; degree-4 tree, "
          "20 members");

  util::Table table({"k (block)", "requests", "repairs", "reconstructions",
                     "data+parity sent", "complete"});

  for (int k : {0, 2, 4, 8}) {  // 0 = no parity
    util::Rng rng(seed);
    auto topo = topo::make_bounded_degree_tree(60, 4);
    auto members = harness::choose_members(60, 20, rng);
    SrmConfig cfg = bench::paper_sim_config(paper_fixed_params(20));
    harness::SimSession session(std::move(topo), members,
                                {cfg, seed, /*group=*/1});
    const net::NodeId source = members[0];
    SrmAgent& tx_agent = session.agent_at(source);

    std::vector<std::unique_ptr<fec::FecSession>> sessions;
    fec::FecSession* tx = nullptr;
    if (k > 0) {
      // One generation per k data ADUs, sealed with exactly one XOR parity:
      // the budget starts and stays at K = 1 (no raise past max_k, no decay).
      FecConfig fec_cfg;
      fec_cfg.generation_size = static_cast<std::size_t>(k);
      fec_cfg.max_k = fec_cfg.initial_k = 1;
      fec_cfg.decay_after_quiet = SIZE_MAX;
      for (net::NodeId m : members) {
        sessions.push_back(
            std::make_unique<fec::FecSession>(session.agent_at(m), fec_cfg));
        if (m == source) tx = sessions.back().get();
      }
    }

    // Lossy first hop below the source: everyone downstream shares losses.
    const auto congested = harness::link_adjacent_to_source(
        session.network().routing(), source, members);
    auto drop = std::make_shared<net::RandomDrop>(
        loss, seed ^ 0xF00D, [](const net::Packet& p) {
          return dynamic_cast<const DataMessage*>(p.payload.get()) != nullptr;
        });
    drop->restrict_to(congested.from, congested.to);
    session.network().set_drop_policy(drop);

    std::uint64_t requests = 0, repairs = 0, data_sent = 0;
    session.network().set_send_observer(
        [&](net::NodeId, const net::Packet& p) {
          if (dynamic_cast<const RequestMessage*>(p.payload.get())) {
            ++requests;
          } else if (dynamic_cast<const RepairMessage*>(p.payload.get())) {
            ++repairs;
          } else if (dynamic_cast<const DataMessage*>(p.payload.get())) {
            ++data_sent;
          }
        });

    // A continuous stream: one ADU per time unit.  Parity only pays off
    // when it arrives before the request timers of the loss it covers
    // (request timers sit at ~C1*d >= several time units).
    const PageId page{static_cast<SourceId>(source), 0};
    session.for_each_agent([&](SrmAgent& a) { a.set_current_page(page); });
    for (int i = 0; i < adus; ++i) {
      session.queue().schedule_after(static_cast<double>(i), [&, i] {
        const Payload payload{static_cast<uint8_t>(i & 0xFF)};
        if (tx != nullptr) {
          tx->send(page, payload);
        } else {
          tx_agent.send_data(page, payload);
        }
      });
    }
    session.queue().run();
    // Tail losses (last block has no trailing traffic): session messages.
    for (int round = 0; round < 3; ++round) {
      session.for_each_agent([&](SrmAgent& a) {
        a.send_session_message();
        session.queue().run();
      });
    }

    std::uint64_t reconstructions = 0;
    for (const auto& s : sessions) {
      if (s.get() != tx) reconstructions += s->stats().reconstructions;
    }
    // Every seq the source's stream reached, data and parity alike.
    bool complete = true;
    const auto last = tx_agent.advertised_max(StreamKey{tx_agent.id(), page});
    const SeqNo total_seqs = last ? *last + 1 : 0;
    for (net::NodeId m : members) {
      for (SeqNo q = 0; q < total_seqs; ++q) {
        if (!session.agent_at(m).has_data(DataName{tx_agent.id(), page, q})) {
          complete = false;
        }
      }
    }

    table.add_row({k == 0 ? "none" : util::Table::num(std::size_t(k)),
                   util::Table::num(requests), util::Table::num(repairs),
                   util::Table::num(reconstructions),
                   util::Table::num(data_sent),
                   complete ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\nExpected: with parity enabled, reconstructions replace a "
               "large share of the\nrequest/repair rounds (most losses in a "
               "block are isolated at 10% loss), at\nthe cost of 1/k extra "
               "transmissions.\n";
  return 0;
}
