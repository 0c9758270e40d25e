// Sequential Ping Explorer Module (active, ICMP echo).
//
// The simplest and most reliable module: one ICMP Echo Request every two
// seconds through an address range, recording repliers. Non-responders get
// exactly one retry pass, per the paper ("If the module receives no response
// to a packet after issuing one request to each destination address, it
// sends one more request packet to each destination that did not respond").

#ifndef SRC_EXPLORER_SEQ_PING_H_
#define SRC_EXPLORER_SEQ_PING_H_

#include <set>
#include <vector>

#include "src/explorer/explorer.h"

namespace fremont {

struct SeqPingParams {
  // Range to sweep; zeros mean the vantage host's attached subnet.
  Ipv4Address first;
  Ipv4Address last;
  Duration interval = Duration::Seconds(2);
  Duration reply_timeout = Duration::Seconds(10);
};

class SeqPing : public ExplorerModule {
 public:
  SeqPing(Vantage vantage, JournalClient* journal, SeqPingParams params = {});

  const std::vector<Ipv4Address>& responders() const { return responders_; }

 protected:
  void StartImpl() override;
  // Records every responder and counts the addresses that stayed silent.
  void Finish() override;

 private:
  void BeginPass(int pass);

  SeqPingParams params_;
  std::vector<Ipv4Address> targets_;
  std::set<uint32_t> replied_;
  std::vector<Ipv4Address> responders_;
};

}  // namespace fremont

#endif  // SRC_EXPLORER_SEQ_PING_H_
