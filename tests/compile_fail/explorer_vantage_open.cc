// Must not compile: a module cannot open the Vantage its constructor
// receives, so it cannot keep the Host* and schedule on Host::events()
// around ExplorerModule::ScheduleGuarded. An event queued that way would
// still fire after the Discovery Manager destroys the module.

#include "src/explorer/explorer.h"

namespace fremont {

class HostKeeper : public ExplorerModule {
 public:
  HostKeeper(Vantage vantage, JournalClient* journal)
      : ExplorerModule("keeper", "Keeper", vantage, journal), host_(vantage.host_) {}

 protected:
  void StartImpl() override {
    host_->events()->Schedule(Duration::Seconds(1), [this]() { Complete(); });
  }

 private:
  Host* host_;
};

}  // namespace fremont
