// Must not compile: a module reads its vantage host only as values through
// vantage(), which has no send path, so every send goes through
// ExplorerModule::SendUdp / SendIcmp, which charge the packet to the
// module's packets_sent.

#include "src/explorer/explorer.h"

namespace fremont {

class UncountedSender : public ExplorerModule {
 public:
  UncountedSender(Host* vantage, JournalClient* journal)
      : ExplorerModule("uncounted", "Uncounted", vantage, journal) {}

 protected:
  void StartImpl() override {
    vantage().SendUdp(Ipv4Address(10, 0, 0, 1), 40000, 7, {});
    Complete();
  }
};

}  // namespace fremont
