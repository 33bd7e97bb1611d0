#include "stream/pass_stats.h"

#include <sstream>

namespace densest {

std::string PassStats::ToString() const {
  std::ostringstream os;
  os << "passes=" << passes << " edges_scanned=" << edges_scanned;
  return os.str();
}

}  // namespace densest
