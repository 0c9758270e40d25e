// Subnet Mask Explorer Module (active, ICMP mask request/reply, RFC 950).
//
// Queries each target interface for its configured subnet mask and records
// the result. Not every stack implements mask reply, and some are configured
// not to answer (to avoid propagating *wrong* masks) — both show up as
// silence. A host answering with a mask that disagrees with its neighbours
// is exactly the "inconsistent network masks" problem of Table 8; the module
// records what it hears and leaves judgement to the analysis programs.

#ifndef SRC_EXPLORER_SUBNET_MASK_H_
#define SRC_EXPLORER_SUBNET_MASK_H_

#include <map>
#include <vector>

#include "src/explorer/explorer.h"
#include "src/util/negative_cache.h"

namespace fremont {

struct SubnetMaskParams {
  // Interfaces to query. Empty = every Journal interface lacking a mask.
  std::vector<Ipv4Address> targets;
  Duration interval = Duration::Seconds(2);
  Duration reply_timeout = Duration::Seconds(10);
  // Optional negative cache shared across runs (the paper's future-work
  // flag "to prevent continually retrying discovery of some datum that we
  // know is unavailable"): interfaces that never answer mask requests are
  // skipped with exponential backoff. Not owned.
  NegativeCache* negative_cache = nullptr;
};

class SubnetMaskExplorer : public ExplorerModule {
 public:
  SubnetMaskExplorer(Vantage vantage, JournalClient* journal, SubnetMaskParams params = {});

  // Targets skipped because the negative cache said "known unavailable".
  int skipped_by_negative_cache() const { return skipped_; }

 protected:
  void StartImpl() override;
  void CancelImpl() override;

 private:
  void Finish();

  SubnetMaskParams params_;
  std::vector<Ipv4Address> targets_;
  std::map<uint32_t, uint32_t> replies_;  // Source ip → raw mask.
  int skipped_ = 0;
};

}  // namespace fremont

#endif  // SRC_EXPLORER_SUBNET_MASK_H_
