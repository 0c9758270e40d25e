// Must not compile anywhere in the tree: -Werror=switch rejects a RequestType
// switch without default: that misses an enumerator, here kPushUpdate.

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
      return false;
  }
  return false;
}

}  // namespace fremont
