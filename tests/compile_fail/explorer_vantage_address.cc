// Must not compile: a module cannot reach its vantage host's interfaces, so
// it cannot change the host's address; what it reads of the primary
// interface is a copy.

#include "src/explorer/explorer.h"

namespace fremont {

class Readdresser : public ExplorerModule {
 public:
  Readdresser(Vantage vantage, JournalClient* journal)
      : ExplorerModule("readdresser", "Readdresser", vantage, journal) {}

 protected:
  void StartImpl() override {
    vantage().interfaces().front()->ip = Ipv4Address(10, 0, 0, 99);
    Complete();
  }
};

}  // namespace fremont
