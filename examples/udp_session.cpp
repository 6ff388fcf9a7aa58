// Two SRM agents talk over real UDP multicast on loopback — each on its own
// UdpTransport (own socket, same port, peered by SO_REUSEPORT), the way two
// separate processes would share a session.  The receiver's transport drops
// the first DATA frame through the receive-filter hook, so the run
// exercises the full loss -> request -> repair -> recovery path over the
// wire (ARCHITECTURE.md §13).
//
// Environments without loopback multicast (some containers) skip cleanly
// with exit code 0; anything short of full recovery on a capable machine
// exits 1.
#include <iostream>

#include "srm/agent.h"
#include "srm/config.h"
#include "srm/messages.h"
#include "trace/timeline.h"
#include "trace/trace.h"
#include "transport/udp_transport.h"
#include "util/rng.h"

int main() {
  using namespace srm;
  if (!transport::UdpTransport::available()) {
    std::cout << "udp_session: loopback multicast unavailable; skipping\n";
    return 0;
  }

  // Default options: loopback interface, pid-derived port — both transports
  // get the same options, so their sockets bind the same port and peer.
  const transport::UdpOptions options;
  transport::UdpTransport alice_bus(options);
  transport::UdpTransport bob_bus(options);

  // The configuration of the cross-backend conformance scenarios
  // (workload::conformance_specs): session messages off, estimated
  // distances, decision points spaced far above the transports' poll
  // granularity.
  SrmConfig config;
  config.timers.c1 = 2.0;
  config.timers.c2 = 0.0;
  config.timers.d1 = 1.0;
  config.timers.d2 = 0.0;
  config.backoff_factor = 3.0;
  config.distance_mode = DistanceMode::kEstimated;
  config.default_distance = 0.05;
  config.session.enabled = false;

  // Each side has its own directory, as two real processes would: an agent
  // only ever binds itself, and remote peers are known purely by the frames
  // they multicast.
  MemberDirectory alice_dir;
  MemberDirectory bob_dir;
  SrmAgent alice(alice_bus, alice_dir, /*node=*/0, /*id=*/0, /*group=*/1,
                 config, util::Rng(7000));
  SrmAgent bob(bob_bus, bob_dir, /*node=*/1, /*id=*/1, /*group=*/1, config,
               util::Rng(7001));

  trace::VectorSink sink;
  trace::Tracer tracer;
  tracer.set_sink(&sink);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm));
  alice.set_tracer(&tracer);
  bob.set_tracer(&tracer);

  // Bob's transport eats the first DATA frame for seq 0; the gap surfaces
  // when seq 1 arrives and SRM repairs it.
  bool eaten = false;
  bob_bus.set_receive_filter(
      [&eaten](const net::Packet& packet, const net::DeliveryInfo&) {
        const auto* data = message_cast<DataMessage>(packet.payload.get());
        if (eaten || data == nullptr || data->name().seq != 0) return false;
        eaten = true;
        return true;
      });

  alice.start();
  bob.start();

  const PageId page{/*source=*/0, /*page=*/1};
  alice_bus.queue().schedule_at(0.25, [&] {
    alice.send_data(page, Payload{'h', 'i'});
  });
  alice_bus.queue().schedule_at(0.40, [&] {
    alice.send_data(page, Payload{'y', 'o'});
  });

  // One thread drives both sockets, alternating short polls; ~2.5 wall
  // seconds covers the request timer (C1 * 0.05s scale) with a wide margin.
  while (alice_bus.elapsed() < 2.5) {
    alice_bus.poll_once(0.002);
    bob_bus.poll_once(0.002);
  }
  alice.stop();
  bob.stop();

  const auto timeline = trace::RecoveryTimeline::fold(sink.events());
  std::cout << "udp_session: port " << alice_bus.port() << "\n"
            << "  alice sent " << alice_bus.stats().frames_sent
            << " frames, bob received " << bob_bus.stats().deliveries
            << " deliveries, " << bob_bus.stats().filtered_drops
            << " scripted drop(s)\n"
            << timeline.summary();

  bool recovered = eaten && !timeline.stories().empty();
  for (const auto& story : timeline.stories()) {
    if (story.recoveries < story.detections || story.abandoned > 0) {
      recovered = false;
    }
  }
  std::cout << (recovered ? "recovery over real UDP: OK\n"
                          : "recovery over real UDP: FAILED\n");
  return recovered ? 0 : 1;
}
