// TTL-scoped local recovery (Sec. VII-B).
//
// A tail circuit: a small office LAN hangs off a long link into a backbone
// tree.  Losses on the office's uplink affect only the three office
// members.  With global recovery, every request and repair floods all 60
// session members; with two-step TTL-scoped recovery plus a strategically
// placed cache member at the head of the tail circuit (the paper's
// suggestion in Sec. IX-B), recovery traffic stays in the office.
//
//   $ ./examples/local_recovery
#include <iostream>
#include <set>

#include "harness/session.h"
#include "net/drop_policy.h"
#include "srm/messages.h"
#include "topo/builders.h"

int main() {
  using namespace srm;

  // Backbone: 40-node degree-4 tree.  Tail circuit: node 40 (cache box at
  // the head of the tail) - long link - node 41 (office router), with
  // office hosts 42, 43, 44.
  auto topo = topo::make_bounded_degree_tree(40, 4);
  const net::NodeId cache = topo.add_node();   // 40
  const net::NodeId office = topo.add_node();  // 41
  topo.add_link(12, cache, 1.0);
  topo.add_link(cache, office, 5.0);  // the long tail circuit
  std::vector<net::NodeId> hosts;
  for (int i = 0; i < 3; ++i) {
    const net::NodeId h = topo.add_node();
    topo.add_link(office, h, 0.5);
    hosts.push_back(h);
  }

  // Members: 20 backbone nodes, the cache, and the office hosts.
  std::vector<net::NodeId> members;
  for (net::NodeId v = 0; v < 20; ++v) members.push_back(v);
  members.push_back(cache);
  for (net::NodeId h : hosts) members.push_back(h);

  auto run = [&](bool scoped) {
    SrmConfig cfg;
    cfg.timers = TimerParams{1.0, 1.0, 1.0, 1.0};
    cfg.local_recovery.enabled = scoped;
    harness::SimSession session(topo, members, {cfg, 77, 1});
    if (scoped) {
      // Office hosts know their loss neighborhood is the office plus the
      // cache at the head of the tail circuit: TTL 2 covers
      // host-office-cache and the sibling hosts.
      for (net::NodeId h : hosts) {
        session.agent_at(h).set_request_ttl_policy(
            [](const DataName&) { return 2; });
      }
    }

    // Count which members recovery traffic reaches.
    std::set<net::NodeId> touched;
    session.network().set_delivery_observer(
        [&](const net::Packet& p, const net::DeliveryInfo& info) {
          if (message_cast<RequestMessage>(p.payload.get()) ||
              message_cast<RepairMessage>(p.payload.get())) {
            touched.insert(info.receiver);
          }
        });

    // The office uplink (cache -> office) drops the first packet from
    // backbone member 0.
    const PageId page{0, 0};
    auto drop = std::make_shared<net::ScriptedLinkDrop>(
        cache, office, [](const net::Packet& p) {
          const auto* d = message_cast<DataMessage>(p.payload.get());
          return d != nullptr && d->name().seq == 0;
        });
    session.network().set_drop_policy(drop);

    session.agent_at(0).send_data(page, {1});
    session.queue().schedule_after(1.0,
                                   [&] { session.agent_at(0).send_data(page, {2}); });
    session.queue().run();

    std::size_t recovered = 0;
    for (net::NodeId h : hosts) {
      recovered += session.agent_at(h).has_data(DataName{0, page, 0});
    }
    std::cout << (scoped ? "scoped" : "global")
              << " recovery: members touched by request/repair traffic = "
              << touched.size() << "/" << members.size()
              << ", office hosts recovered = " << recovered << "/3\n";
    return touched.size();
  };

  const std::size_t global_touched = run(false);
  const std::size_t scoped_touched = run(true);
  std::cout << "\ntwo-step TTL scoping confined recovery to "
            << scoped_touched << " members instead of " << global_touched
            << " — the backbone at large never saw it.\n";
  return scoped_touched < global_touched ? 0 : 1;
}
