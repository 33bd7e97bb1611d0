#include "core/peel_runs.h"

#include <algorithm>
#include <cmath>

namespace densest {

namespace {

/// The largest degrees[u] <= threshold over the members u of `set` (0 if
/// none).
double MaxDegreeAtMost(const NodeSet& set, const std::vector<double>& degrees,
                       double threshold) {
  double best = 0;
  ForEachMember(set, 0, set.universe_size(), [&](NodeId u) {
    if (degrees[u] <= threshold) best = std::max(best, degrees[u]);
  });
  return best;
}

/// Decides which side to peel under the naive max-degree rule (§4.3):
/// returns true to peel S. Compares the max indegree among B(T) against the
/// max outdegree among A(S), scaled by c.
bool PeelSByMaxDegreeRule(const NodeSet& s, const NodeSet& t,
                          const std::vector<double>& out_to_t,
                          const std::vector<double>& in_from_s,
                          double weight, double epsilon, double c) {
  // E(i*, T) over i in A(S), and E(S, j*) over j in B(T).
  const double max_out_in_a =
      MaxDegreeAtMost(s, out_to_t, (1.0 + epsilon) * weight / s.size());
  const double max_in_in_b =
      MaxDegreeAtMost(t, in_from_s, (1.0 + epsilon) * weight / t.size());
  if (max_out_in_a == 0) return true;   // removing A(S) is free
  if (max_in_in_b == 0) return false;   // removing B(T) is free
  return max_in_in_b / max_out_in_a >= c;
}

}  // namespace

// ------------------------------------------------------------- Algorithm 1

Algorithm1Run::Algorithm1Run(NodeId n, const Algorithm1Options& options)
    : options_(options), n_(n), alive_(n, /*full=*/true), best_(alive_) {
  done_ = alive_.empty();
}

void Algorithm1Run::ApplyPass(const UndirectedPassResult& stats,
                              const std::vector<double>& degrees) {
  ++pass_;
  if (mode_ != PassMode::kBuffer) ++io_passes_;
  if (mode_ == PassMode::kCollectPass) mode_ = PassMode::kBuffer;

  const double rho = stats.weight / static_cast<double>(alive_.size());

  // Algorithm 1 line 5: S~ tracks the densest intermediate subgraph.
  // (Pass 1 sees S = V, matching the S~ <- V initialization.)
  if (rho > best_density_) {
    best_density_ = rho;
    best_ = alive_;
  }

  // Algorithm 1 line 3: A(S) = { i in S : deg_S(i) <= 2(1+eps) rho(S) }.
  const double factor = 2.0 * (1.0 + options_.epsilon);
  const double threshold = factor * rho;
  NodeId removed = 0;
  ForEachMember(alive_, 0, n_, [&](NodeId u) {
    if (degrees[u] <= threshold) {
      alive_.Remove(u);
      ++removed;
    }
  });

  // Arm compaction for the next pass once the survivor count is small.
  // (The surviving edge count after removal is at most stats.edges.)
  if (mode_ == PassMode::kStream && options_.compact_below_edges > 0 &&
      stats.edges <= options_.compact_below_edges) {
    mode_ = PassMode::kCollectPass;
    buffer_.reserve(static_cast<size_t>(stats.edges));
  }

  if (options_.record_trace) {
    PassSnapshot snap;
    snap.pass = pass_;
    snap.nodes = static_cast<NodeId>(alive_.size() + removed);
    snap.edges = stats.edges;
    snap.weight = stats.weight;
    snap.density = rho;
    snap.threshold = threshold;
    snap.removed = removed;
    result_.trace.push_back(snap);
  }

  done_ = alive_.empty() ||
          (options_.max_passes != 0 && pass_ >= options_.max_passes);
}

UndirectedDensestResult Algorithm1Run::TakeResult() {
  result_.nodes = best_.ToVector();
  result_.density = best_density_ < 0 ? 0.0 : best_density_;
  result_.passes = pass_;
  result_.io_passes = io_passes_;
  // Lemma 1: rho* <= 2(1+eps) rho(S~).
  result_.certified_band = 2.0 * (1.0 + options_.epsilon);
  return std::move(result_);
}

// ------------------------------------------------------------- Algorithm 2

Algorithm2Run::Algorithm2Run(NodeId n, const Algorithm2Options& options)
    : options_(options), n_(n), alive_(n, /*full=*/true), best_(alive_) {
  done_ = alive_.empty() || alive_.size() < options_.min_size;
}

void Algorithm2Run::ApplyPass(const UndirectedPassResult& stats,
                              const std::vector<double>& degrees) {
  ++pass_;
  const double rho = stats.weight / static_cast<double>(alive_.size());

  // Algorithm 2 line 6: best intermediate subgraph with |S| >= k.
  if (alive_.size() >= options_.min_size && rho > best_density_) {
    best_density_ = rho;
    best_ = alive_;
  }

  // A~(S): the below-threshold candidates.
  const double factor = 2.0 * (1.0 + options_.epsilon);
  const double threshold = factor * rho;
  candidates_.clear();
  ForEachMember(alive_, 0, n_, [&](NodeId u) {
    if (degrees[u] <= threshold) candidates_.push_back(u);
  });

  // Algorithm 2 line 4: remove only |A(S)| = eps/(1+eps) |S| of them —
  // the lowest-degree ones — so some intermediate set lands near size k.
  const double removal_fraction = options_.epsilon / (1.0 + options_.epsilon);
  NodeId quota = static_cast<NodeId>(std::ceil(
      removal_fraction * static_cast<double>(alive_.size())));
  quota = std::max<NodeId>(quota, 1);
  quota = std::min<NodeId>(quota, static_cast<NodeId>(candidates_.size()));
  if (quota < candidates_.size()) {
    std::nth_element(candidates_.begin(), candidates_.begin() + quota,
                     candidates_.end(), [&](NodeId a, NodeId b) {
                       return degrees[a] != degrees[b]
                                  ? degrees[a] < degrees[b]
                                  : a < b;
                     });
    candidates_.resize(quota);
  }
  for (NodeId u : candidates_) alive_.Remove(u);

  if (options_.record_trace) {
    PassSnapshot snap;
    snap.pass = pass_;
    snap.nodes = static_cast<NodeId>(alive_.size() + candidates_.size());
    snap.edges = stats.edges;
    snap.weight = stats.weight;
    snap.density = rho;
    snap.threshold = threshold;
    snap.removed = static_cast<NodeId>(candidates_.size());
    result_.trace.push_back(snap);
  }

  done_ = candidates_.empty() ||  // nothing removable: avoid spinning
          alive_.empty() || alive_.size() < options_.min_size ||
          (options_.max_passes != 0 && pass_ >= options_.max_passes);
}

UndirectedDensestResult Algorithm2Run::TakeResult() {
  result_.nodes = best_.ToVector();
  result_.density = best_density_ < 0 ? 0.0 : best_density_;
  result_.passes = pass_;
  result_.io_passes = pass_;
  // Theorem 4: rho*_{>=k} <= 3(1+eps) rho(S~) for the at-least-k problem.
  result_.certified_band = 3.0 * (1.0 + options_.epsilon);
  return std::move(result_);
}

// ------------------------------------------------------------- Algorithm 3

Algorithm3Run::Algorithm3Run(NodeId n, const Algorithm3Options& options)
    : options_(options),
      n_(n),
      s_(n, /*full=*/true),
      t_(n, /*full=*/true),
      best_s_(s_),
      best_t_(t_) {
  result_.c = options.c;
  done_ = s_.empty() || t_.empty();
}

DirectedSides Algorithm3Run::sides() const {
  if (options_.rule == DirectedRemovalRule::kMaxDegree) return {};
  // Algorithm 3 line 3: drive |S|/|T| toward c.
  const double ratio =
      static_cast<double>(s_.size()) / static_cast<double>(t_.size());
  const bool peel_s = ratio >= options_.c;
  return {.out = peel_s, .in = !peel_s};
}

void Algorithm3Run::ApplyPass(const DirectedPassResult& stats,
                              const std::vector<double>& out_to_t,
                              const std::vector<double>& in_from_s) {
  ++pass_;
  const double rho =
      stats.weight / std::sqrt(static_cast<double>(s_.size()) *
                               static_cast<double>(t_.size()));

  // Algorithm 3 line 10: track the densest intermediate pair.
  if (rho > best_density_) {
    best_density_ = rho;
    best_s_ = s_;
    best_t_ = t_;
  }

  // The pass filled the arrays sides() named over the current sizes; a
  // rule that reads one array has already picked its side.
  const DirectedSides read = sides();
  bool peel_s = read.out;
  if (read.out && read.in) {
    peel_s = PeelSByMaxDegreeRule(s_, t_, out_to_t, in_from_s, stats.weight,
                                  options_.epsilon, options_.c);
  }

  NodeSet& side = peel_s ? s_ : t_;
  const std::vector<double>& degrees = peel_s ? out_to_t : in_from_s;
  const double threshold = (1.0 + options_.epsilon) * stats.weight /
                           static_cast<double>(side.size());
  NodeId removed = 0;
  ForEachMember(side, 0, n_, [&](NodeId u) {
    if (degrees[u] <= threshold) {
      side.Remove(u);
      ++removed;
    }
  });

  if (options_.record_trace) {
    DirectedPassSnapshot snap;
    snap.pass = pass_;
    snap.s_size =
        peel_s ? static_cast<NodeId>(s_.size() + removed) : s_.size();
    snap.t_size =
        peel_s ? t_.size() : static_cast<NodeId>(t_.size() + removed);
    snap.weight = stats.weight;
    snap.density = rho;
    snap.removed_from_s = peel_s;
    snap.removed = removed;
    result_.trace.push_back(snap);
  }

  done_ = s_.empty() || t_.empty() ||
          (options_.max_passes != 0 && pass_ >= options_.max_passes);
}

DirectedDensestResult Algorithm3Run::TakeResult() {
  result_.s_nodes = best_s_.ToVector();
  result_.t_nodes = best_t_.ToVector();
  result_.density = best_density_ < 0 ? 0.0 : best_density_;
  result_.passes = pass_;
  // Theorem 6: rho*(c) <= 2(1+eps) rho(S~, T~) at this ratio c.
  result_.certified_band = 2.0 * (1.0 + options_.epsilon);
  return std::move(result_);
}

}  // namespace densest
