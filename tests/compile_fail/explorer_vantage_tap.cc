// Must not compile: a module reads its vantage's primary interface as a copy
// of its address and mask, with no segment to reach. A tap registered on the
// segment directly would skip ExplorerModule::Tap's bookkeeping, outlive
// Complete() and dangle once the Discovery Manager destroys the module.

#include "src/explorer/explorer.h"

namespace fremont {

class StrayTapper : public ExplorerModule {
 public:
  StrayTapper(Vantage vantage, JournalClient* journal)
      : ExplorerModule("tapper", "Tapper", vantage, journal) {}

 protected:
  void StartImpl() override {
    vantage().primary_interface()->segment->AddTap([](const EthernetFrame&, SimTime) {});
    Complete();
  }
};

}  // namespace fremont
