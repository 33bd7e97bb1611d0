#include "core/density.h"

#include <cmath>
#include <sstream>
#include <string>

namespace densest {

Answer UndirectedDensestResult::ToAnswer() const {
  Answer a;
  a.density = density;
  a.size = static_cast<NodeId>(nodes.size());
  a.certified = certified_band > 0;
  a.upper_bound = a.certified ? certified_band * density : 0;
  return a;
}

Answer DirectedDensestResult::ToAnswer() const {
  Answer a;
  a.density = density;
  a.size = static_cast<NodeId>(s_nodes.size() + t_nodes.size());
  a.certified = certified_band > 0;
  a.upper_bound = a.certified ? certified_band * density : 0;
  return a;
}

Status CheckEpsilon(double epsilon, const char* name) {
  if (std::isfinite(epsilon) && epsilon >= 0) return Status::OK();
  return Status::InvalidArgument(std::string(name) +
                                 " must be finite and >= 0");
}

std::string Summarize(const UndirectedDensestResult& r) {
  std::ostringstream os;
  os << "rho=" << r.density << " |S|=" << r.nodes.size()
     << " passes=" << r.passes;
  return os.str();
}

std::string Summarize(const DirectedDensestResult& r) {
  std::ostringstream os;
  os << "rho=" << r.density << " |S|=" << r.s_nodes.size()
     << " |T|=" << r.t_nodes.size() << " c=" << r.c << " passes=" << r.passes;
  return os.str();
}

}  // namespace densest
