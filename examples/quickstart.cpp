// Quickstart: the smallest complete SRM program.
//
// Builds a 6-node chain network, runs a 6-member SRM session on it, drops a
// packet on a link, and watches the framework recover it: the member just
// below the failure requests, the member just above answers, everyone else
// is suppressed.
//
//   $ ./examples/quickstart
#include <iostream>

#include "harness/session.h"
#include "net/drop_policy.h"
#include "srm/messages.h"
#include "topo/builders.h"

int main() {
  using namespace srm;

  // 1. A network: six nodes in a chain, one second of delay per link.
  net::Topology topo = topo::make_chain(6);

  // 2. A session: an SRM agent on every node.  Timer parameters C1=C2=2,
  //    D1=D2=1; distances from the routing oracle (see SrmConfig for the
  //    session-message-estimated alternative).
  SrmConfig config;
  config.timers = TimerParams{2.0, 2.0, 1.0, 1.0};
  harness::SimSession session(std::move(topo), {0, 1, 2, 3, 4, 5},
                              {config, /*seed=*/7, /*group=*/1});

  // 3. Watch the control traffic.
  session.network().set_send_observer(
      [&](net::NodeId from, const net::Packet& p) {
        std::cout << "  t=" << session.queue().now() << "s  node " << from
                  << " sends " << p.payload->describe() << "\n";
      });

  // 4. Drop the first data packet on the link between nodes 2 and 3, so
  //    members 3, 4, 5 miss it.
  auto drop = std::make_shared<net::ScriptedLinkDrop>(
      2, 3, [](const net::Packet& p) {
        const auto* d = message_cast<DataMessage>(p.payload.get());
        return d != nullptr && d->name().seq == 0;
      });
  session.network().set_drop_policy(drop);

  // 5. Member 0 sends two ADUs on its page; the first is lost downstream of
  //    node 2, and the gap revealed by the second triggers recovery.
  const PageId page{0, 0};
  std::cout << "sending (packet seq 0 will be dropped on link 2-3):\n";
  session.agent_at(0).send_data(page, {'h', 'i'});
  session.queue().schedule_after(1.0, [&] {
    session.agent_at(0).send_data(page, {'!'});
  });
  session.queue().run();

  // 6. Everyone has everything.
  std::cout << "\nfinal state:\n";
  for (net::NodeId n = 0; n < 6; ++n) {
    const auto& m = session.agent_at(n).metrics();
    std::cout << "  node " << n << ": has seq0="
              << session.agent_at(n).has_data(DataName{0, page, 0})
              << "  requests_sent=" << m.requests_sent
              << "  repairs_sent=" << m.repairs_sent
              << "  recoveries=" << m.recoveries << "\n";
  }
  return 0;
}
