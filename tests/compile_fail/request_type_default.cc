// Must not compile with fremont_journal's options: -Werror=switch-enum
// rejects a RequestType switch whose default: stands in for an enumerator,
// here kPushUpdate.

#include "src/journal/protocol.h"

namespace fremont {

bool IsStore(RequestType type) {
  switch (type) {
    case RequestType::kStoreInterface:
    case RequestType::kStoreGateway:
    case RequestType::kStoreSubnet:
      return true;
    case RequestType::kGetInterfaces:
    case RequestType::kGetGateways:
    case RequestType::kGetSubnets:
    case RequestType::kDeleteInterface:
    case RequestType::kDeleteGateway:
    case RequestType::kDeleteSubnet:
    case RequestType::kGetStats:
    case RequestType::kBatch:
    case RequestType::kGetChangedSince:
    case RequestType::kSubscribe:
    case RequestType::kUnsubscribe:
    default:
      return false;
  }
}

}  // namespace fremont
