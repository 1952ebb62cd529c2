#include <memory>
#include <string>

#include "src/kernel/barrier.h"
#include "src/kernel/kernel.h"
#include "src/kernel/nullmsg.h"
#include "src/kernel/sequential.h"
#include "src/kernel/unison.h"

namespace unison {

std::unique_ptr<Kernel> MakeKernel(const KernelConfig& config) {
  if (std::string error = config.Validate(); !error.empty()) {
    FatalConfigError(error);
  }
  switch (config.type) {
    case KernelType::kSequential:
      return std::make_unique<SequentialKernel>(config);
    case KernelType::kBarrier:
      return std::make_unique<BarrierKernel>(config);
    case KernelType::kNullMessage:
      return std::make_unique<NullMessageKernel>(config);
    case KernelType::kUnison:
    case KernelType::kHybrid:  // Unison with more than one rank.
      return std::make_unique<UnisonKernel>(config);
  }
  return nullptr;
}

}  // namespace unison
