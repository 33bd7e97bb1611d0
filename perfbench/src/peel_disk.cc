// Workload peel-disk: im-sim written once as a packed binary edge file,
// then Algorithm 1 (eps = 0.5) over BinaryFileEdgeStream and the
// MapReduce Algorithm 1 (eps = 1, 4 MiB shuffle spill budget) over the
// same file. Stream reading, the record-batch pass kernel and the
// MapReduce shuffle/spill do the work; the CSR kernels and the fusion
// engine stay idle. The file is read through the OS page cache after the
// first pass, so this measures the streaming path, not a cold disk.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm1.h"
#include "gen/datasets.h"
#include "graph/undirected_graph.h"
#include "mapreduce/mr_densest.h"
#include "stream/file_stream.h"
#include "workloads.h"

namespace perfbench {

using namespace densest;

namespace {

constexpr double kEpsilon = 0.5;
constexpr double kMrEpsilon = 1.0;
constexpr uint64_t kSpillBudget = 4 << 20;

struct Rounds {
  std::vector<double> alg1_s, mr_s, round_s;
  UndirectedDensestResult alg1;
  MrDensestResult mr;
};

class PeelDisk {
 public:
  explicit PeelDisk(Run& run)
      : run_(run),
        dir_(std::filesystem::path(run.config.out_dir) /
             ("peel-disk-" + std::to_string(::getpid()))) {}

  ~PeelDisk() {
    stream_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  PeelDisk(const PeelDisk&) = delete;
  PeelDisk& operator=(const PeelDisk&) = delete;

  bool Setup() {
    stream_.reset();
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    path_ = (dir_ / "im-sim.bin").string();
    if (Status s = WriteBinaryEdgeFile(path_, MakeImSim(run_.config.seed),
                                       /*weighted=*/false);
        !s.ok()) {
      run_.report.Fail("WriteBinaryEdgeFile", s);
      return false;
    }
    auto opened = BinaryFileEdgeStream::Open(path_);
    if (!opened.ok()) {
      run_.report.Fail("BinaryFileEdgeStream::Open", opened.status());
      return false;
    }
    stream_ = std::move(*opened);
    return true;
  }

  MrDensestOptions MrOptions() const {
    MrDensestOptions opt;
    opt.epsilon = kMrEpsilon;
    opt.record_trace = false;
    opt.spill_budget_bytes = kSpillBudget;
    opt.spill_dir = dir_.string();
    return opt;
  }

  bool Round(Rounds& out) {
    WallTimer round;
    {
      WallTimer t;
      SpanLog::Scope span(run_.spans, "core/peel",
                          "RunAlgorithm1 (BinaryFileEdgeStream)");
      Algorithm1Options opt;
      opt.epsilon = kEpsilon;
      opt.record_trace = false;
      auto r = RunAlgorithm1(*stream_, opt);
      run_.report.CountOps(1);
      if (!r.ok()) return Failed("RunAlgorithm1 (disk)", r.status());
      out.alg1_s.push_back(t.ElapsedSeconds());
      out.alg1 = std::move(*r);
    }
    {
      WallTimer t;
      SpanLog::Scope span(run_.spans, "mapreduce", "RunMrDensestUndirected");
      auto r = RunMrDensestUndirected(env_, *stream_, MrOptions());
      run_.report.CountOps(1);
      if (!r.ok()) return Failed("RunMrDensestUndirected", r.status());
      out.mr_s.push_back(t.ElapsedSeconds());
      out.mr = std::move(*r);
    }
    out.round_s.push_back(round.ElapsedSeconds());
    if (Status s = stream_->status(); !s.ok()) return Failed("stream read", s);
    run_.RoundDone();
    return true;
  }

  bool Measure(double seconds, Rounds& out) {
    WallTimer wall;
    while (out.round_s.size() < 3 || wall.ElapsedSeconds() < seconds) {
      if (!Round(out)) return false;
    }
    return true;
  }

  void Checks(const Rounds& r) {
    StreamOk("measured rounds");
    // Format equivalence: the same graph as an in-memory CSR.
    {
      const UndirectedGraph g =
          UndirectedGraph::FromEdgeList(MakeImSim(run_.config.seed));
      Algorithm1Options opt;
      opt.epsilon = kEpsilon;
      opt.record_trace = false;
      auto csr = RunAlgorithm1(g, opt);
      run_.report.CountOps(1);
      if (!csr.ok()) return (void)Failed("RunAlgorithm1 (CSR)", csr.status());
      run_.report.Expect("disk alg1 == CSR alg1", SameResult(r.alg1, *csr),
                         "rho=" + std::to_string(r.alg1.density) +
                             " passes=" + std::to_string(r.alg1.passes));
    }
    // MapReduce == streaming Algorithm 1 at the MR epsilon.
    Algorithm1Options opt;
    opt.epsilon = kMrEpsilon;
    opt.record_trace = false;
    auto streaming = RunAlgorithm1(*stream_, opt);
    run_.report.CountOps(1);
    if (!streaming.ok()) {
      return (void)Failed("RunAlgorithm1 (disk, eps=1)", streaming.status());
    }
    run_.report.Expect("MR result == RunAlgorithm1 eps=1 on the same stream",
                       SameResult(r.mr.result, *streaming),
                       "rho=" + std::to_string(r.mr.result.density) +
                           " passes=" + std::to_string(r.mr.result.passes));
    StreamOk("checks");
  }

  void ReportRounds(const Rounds& r) {
    run_.report.Timing("alg1_s", r.alg1_s, "s",
                       "RunAlgorithm1 eps=0.5 over BinaryFileEdgeStream");
    run_.report.Value("alg1_rho", r.alg1.density, "rho");
    run_.report.Timing("job_s", r.mr_s, "s",
                       "MapReduce Algorithm 1, eps=1, 4 MiB spill budget");
    run_.report.Timing("mr_s", r.mr_s, "s");
  }

  void ReportMr(const Rounds& r) {
    // MrDensestResult::totals is the env's running total over every job it
    // ran; the last job's own counters are the sum of its passes.
    JobStats t;
    for (const JobStats& pass : r.mr.pass_stats) t.Accumulate(pass);
    const uint64_t passes = std::max<uint64_t>(1, r.mr.result.passes);
    double sim = 0;
    for (double s : r.mr.pass_seconds) sim += s;
    run_.report.Value("mr.input_scans", static_cast<double>(r.mr.input_scans),
                      "count");
    run_.report.Value("mr.passes", static_cast<double>(r.mr.result.passes),
                      "count");
    run_.report.Value("mr.map_input_records",
                      static_cast<double>(t.map_input_records), "count");
    run_.report.Value(
        "mr.combine_ratio",
        t.combine_input_records == 0
            ? 1.0
            : static_cast<double>(t.combine_output_records) /
                  static_cast<double>(t.combine_input_records),
        "ratio", "records after / before the map-side combiner");
    run_.report.Value("mr.shuffle_bytes", static_cast<double>(t.shuffle_bytes),
                      "bytes");
    run_.report.Value("mr.spill_bytes_written",
                      static_cast<double>(t.spill_bytes_written), "bytes");
    run_.report.Value("mr.spill_runs", static_cast<double>(t.spill_runs),
                      "count");
    run_.report.Value("mr.io_retries", static_cast<double>(t.io_retries),
                      "count");
    run_.report.Value("mr.sim_seconds", sim, "s",
                      "cost-model cluster seconds (Figure 6.7)");
    run_.report.Value("mr.s_per_pass",
                      Median(r.mr_s) / static_cast<double>(passes), "s");
  }

  EdgeStream& stream() { return *stream_; }
  uint64_t bytes_read() const { return stream_->bytes_read(); }

 private:
  bool Failed(const std::string& what, const Status& s) {
    run_.report.Fail(what, s);
    return false;
  }
  bool StreamOk(const std::string& phase) {
    const Status s = stream_->status();
    run_.report.Expect("stream status() OK after " + phase, s.ok(),
                       s.ToString());
    return s.ok();
  }

  Run& run_;
  std::filesystem::path dir_;
  std::string path_;
  std::unique_ptr<BinaryFileEdgeStream> stream_;
  MapReduceEnv env_;  // default cost model, nproc local threads, reused
};

}  // namespace

int RunPeelDisk(Run& run) {
  PeelDisk w(run);
  if (!TimedSetup(run, [&] { return w.Setup(); })) return 1;

  if (!run.config.trace) {
    Rounds rounds;
    if (!w.Measure(run.config.seconds, rounds)) return 1;
    w.ReportRounds(rounds);
    w.Checks(rounds);
    return 0;
  }

  run.spans.set_enabled(false);
  Rounds untraced;
  if (!w.Measure(run.config.seconds / 2, untraced)) return 1;
  run.spans.set_enabled(true);
  Rounds traced;
  uint64_t root_id = 0;
  {
    SpanLog::Scope root(run.spans, "bench", "peel-disk traced phase");
    root_id = root.id();
    if (!w.Measure(run.config.seconds / 2, traced)) return 1;
    ProbeStream(run, w.stream(), [&] { return w.bytes_read(); });
    ProbePasses(run, w.stream(), kEpsilon, traced.alg1, Median(traced.alg1_s));
  }
  w.ReportRounds(traced);
  w.ReportMr(traced);
  ReportTrace(run, root_id, "peel-disk traced phase", Median(traced.round_s),
              Median(untraced.round_s));
  w.Checks(traced);
  return 0;
}

}  // namespace perfbench
