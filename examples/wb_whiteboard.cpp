// A distributed whiteboard session over SRM — the paper's motivating
// application (Sec. II-C).
//
// Three members share a whiteboard across a lossy wide-area tree.  Member A
// draws a diagram, member B annotates and deletes one of A's strokes, and a
// late joiner C pulls the whole history from whoever has it.  Every board
// converges to the same picture despite 15% packet loss.
//
//   $ ./examples/wb_whiteboard
#include <iostream>

#include "harness/session.h"
#include "net/drop_policy.h"
#include "srm/messages.h"
#include "topo/builders.h"
#include "wb/whiteboard.h"

namespace {

void render(const char* who, const srm::wb::Page& page) {
  std::cout << who << " sees " << page.visible_count() << " strokes:";
  for (const auto& [name, op] : page.visible_ops()) {
    std::cout << " [" << srm::wb::to_string(op.type) << " @" << op.timestamp
              << " by " << name.source << "]";
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  using namespace srm;

  // A wide-area tree: 20 routers, degree 3; members sit on nodes 2, 11, 19.
  auto topo = topo::make_bounded_degree_tree(20, 3);
  SrmConfig config;
  config.timers = TimerParams{2.0, 2.0, 1.0, 1.0};
  harness::SimSession session(std::move(topo), {2, 11}, {config, 21, 1});

  wb::Whiteboard alice(session.agent_at(2));
  wb::Whiteboard bob(session.agent_at(11));

  // 15% loss on all data packets: the whiteboard must not care.
  session.network().set_drop_policy(std::make_shared<net::RandomDrop>(
      0.15, 5, [](const net::Packet& p) {
        return message_cast<DataMessage>(p.payload.get()) != nullptr;
      }));

  const PageId page = alice.create_page();
  bob.view_page(page);

  // Alice draws a house.
  auto stroke = [&](wb::Whiteboard& board, wb::OpType type, double x1,
                    double y1, double x2, double y2, double ts) {
    wb::DrawOp op;
    op.type = type;
    op.x1 = x1;
    op.y1 = y1;
    op.x2 = x2;
    op.y2 = y2;
    op.timestamp = ts;
    return board.draw(page, op);
  };
  stroke(alice, wb::OpType::kRect, 0, 0, 10, 8, 1);
  stroke(alice, wb::OpType::kLine, 0, 8, 5, 12, 2);
  stroke(alice, wb::OpType::kLine, 5, 12, 10, 8, 3);
  const DataName door = stroke(alice, wb::OpType::kRect, 4, 0, 6, 4, 4);
  session.queue().run();

  // Bob annotates, then deletes Alice's door (any member may modify the
  // shared drawing; deletion is a new drawop, Sec. II-C).
  stroke(bob, wb::OpType::kCircle, 12, 10, 1, 0, 5);
  bob.erase(page, door);
  session.queue().run();

  // Session messages let members recover any tail losses.
  session.agent_at(2).send_session_message();
  session.agent_at(11).send_session_message();
  session.queue().run();

  render("alice", alice.page(page));
  render("bob  ", bob.page(page));

  // A late joiner appears at node 19 and fetches the back history purely
  // through SRM's request/repair machinery.
  std::cout << "\nlate joiner at node 19...\n";
  SrmAgent carol_agent(session.network(), session.directory(), 19, 19, 1,
                       config, util::Rng(99));
  carol_agent.start();
  wb::Whiteboard carol(carol_agent);
  carol.view_page(page);
  session.agent_at(11).send_session_message();
  session.queue().run();
  render("carol", carol.page(page));

  const bool converged =
      alice.page(page).visible_count() == bob.page(page).visible_count() &&
      bob.page(page).visible_count() == carol.page(page).visible_count();
  std::cout << "\nboards converged: " << (converged ? "yes" : "NO") << "\n";
  std::cout << "loss recoveries: alice=" << session.agent_at(2).metrics().recoveries
            << " bob=" << session.agent_at(11).metrics().recoveries
            << " carol=" << carol_agent.metrics().recoveries << "\n";
  carol_agent.stop();
  return converged ? 0 : 1;
}
