#include "mac/packet.h"

namespace crn::mac {

const char* ToString(TxOutcome outcome) {
  switch (outcome) {
    case TxOutcome::kSuccess:
      return "success";
    case TxOutcome::kAbortedPuReturn:
      return "aborted-pu-return";
    case TxOutcome::kSirFailure:
      return "sir-failure";
    case TxOutcome::kReceiverBusy:
      return "receiver-busy";
    case TxOutcome::kCaptureLost:
      return "capture-lost";
  }
  return "unknown";
}

}  // namespace crn::mac
