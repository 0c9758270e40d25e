// Pins the simulated wire traffic of the default campus.
//
// The substrate's performance work (decode-once delivery, cached RIP
// advertisements, move-only frame paths, the flat ARP cache) promises to
// leave every simulated byte, event and RNG draw where it was. This test
// holds it to that: the default 111-subnet campus runs for two simulated
// hours with no Explorer Module, a tap on every segment digests each
// delivered frame, and the counts and the digest must equal the values
// captured before those changes. The run includes a few collision drops, so
// the collision model's RNG draws are pinned too.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/sim/simulator.h"
#include "src/sim/topology.h"

namespace fremont {
namespace {

// FNV-1a, 64-bit.
class Fnv1a {
 public:
  void Add(const uint8_t* data, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      hash_ ^= data[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddU64(uint64_t v) {
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<uint8_t>(v >> (56 - 8 * i));
    }
    Add(bytes, sizeof(bytes));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

TEST(SimGoldenTest, DefaultCampusWireTrafficIsUnchanged) {
  Simulator sim(1993);
  Campus campus = BuildCampus(sim, CampusParams{});

  Fnv1a digest;
  uint64_t tapped = 0;
  for (size_t index = 0; index < sim.segments().size(); ++index) {
    sim.segments()[index]->AddTap([&digest, &tapped, index](const EthernetFrame& frame,
                                                            SimTime when) {
      ++tapped;
      digest.AddU64(static_cast<uint64_t>(when.ToMicros()));
      digest.AddU64(index);
      digest.AddU64(frame.dst.ToU64());
      digest.AddU64(frame.src.ToU64());
      digest.AddU64(static_cast<uint16_t>(frame.ethertype));
      digest.AddU64(frame.payload.size());
      digest.Add(frame.payload.data(), frame.payload.size());
    });
  }

  sim.RunFor(Duration::Hours(2));

  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t frames_dropped = 0;
  for (const auto& segment : sim.segments()) {
    frames_sent += segment->stats().frames_sent;
    bytes_sent += segment->stats().bytes_sent;
    frames_dropped += segment->stats().frames_dropped;
  }

  EXPECT_EQ(sim.events().executed_count(), 287058u);
  EXPECT_EQ(frames_sent, 157449u);
  EXPECT_EQ(bytes_sent, 67063642u);
  EXPECT_EQ(frames_dropped, 3u);
  EXPECT_EQ(tapped, frames_sent - frames_dropped);
  EXPECT_EQ(digest.value(), 543325816326160399ULL);
}

}  // namespace
}  // namespace fremont
