#include "ftm/sim/cluster.hpp"

#include <algorithm>

namespace ftm::sim {

#if FTM_TRACE_ENABLED
namespace {

const char* route_span_name(DmaRoute r) {
  switch (r) {
    case DmaRoute::DdrToSpm: return "dma ddr->spm";
    case DmaRoute::SpmToDdr: return "dma spm->ddr";
    case DmaRoute::GsmToSpm: return "dma gsm->spm";
    case DmaRoute::SpmToGsm: return "dma spm->gsm";
    case DmaRoute::OnChip: return "dma onchip";
  }
  return "dma";
}

const char* route_counter_name(DmaRoute r) {
  switch (r) {
    case DmaRoute::DdrToSpm: return "ddr.read_bytes";
    case DmaRoute::SpmToDdr: return "ddr.write_bytes";
    case DmaRoute::GsmToSpm: return "gsm.read_bytes";
    case DmaRoute::SpmToGsm: return "gsm.write_bytes";
    case DmaRoute::OnChip: return "onchip.bytes";
  }
  return "dma.bytes";
}

}  // namespace
#endif

Cluster::Cluster(const isa::MachineConfig& mc, int id)
    : mc_(mc), id_(id), gsm_("GSM", mc.gsm_bytes), dma_costs_(mc) {
  cores_.reserve(mc.cores_per_cluster);
  for (int i = 0; i < mc.cores_per_cluster; ++i) {
    cores_.push_back(std::make_unique<DspCore>(mc));
  }
  timelines_.resize(mc.cores_per_cluster);
  active_cores_ = mc.cores_per_cluster;
}

DspCore& Cluster::core(int i) {
  FTM_EXPECTS(i >= 0 && i < num_cores());
  return *cores_[i];
}

CoreTimeline& Cluster::timeline(int i) {
  FTM_EXPECTS(i >= 0 && i < num_cores());
  return timelines_[i];
}

void Cluster::set_active_cores(int n) {
  FTM_EXPECTS(n >= 1 && n <= num_cores());
  active_cores_ = n;
}

DmaHandle Cluster::dma(int c, const DmaRequest& req, const std::uint8_t* src,
                       std::uint8_t* dst) {
  const DmaHandle h = dma_issue(c, req);  // throws before any bytes move
  if (functional_) {
    FTM_EXPECTS(src != nullptr && dst != nullptr);
    dma_copy(req, src, dst);
    if (const auto corrupt = store_corruption(c, req)) {
      dma_corrupt(req, dst, corrupt->word, corrupt->xor_mask);
    }
  }
  return h;
}

std::optional<fault::FaultInjector::Corruption> Cluster::store_corruption(
    int c, const DmaRequest& req) {
  if (fault_ == nullptr || !functional_ || req.route != DmaRoute::SpmToDdr) {
    return std::nullopt;
  }
  return fault_->on_store(id_, c, req.total_bytes());
}

DmaHandle Cluster::dma_issue(int c, const DmaRequest& req) {
  FTM_EXPECTS(c >= 0 && c < num_cores());
  std::uint64_t cost = dma_costs_.cost(req, active_cores_);
  if (fault_ != nullptr) {
    // May throw FaultError (DmaError / SpmEcc / ClusterDead) before any
    // bytes move, or return a timeout penalty charged on the timeline.
    cost += fault_->on_dma(id_, c, req.total_bytes());
  }
  timelines_[c].add_dma_bytes(req.total_bytes());
  const DmaHandle h = timelines_[c].dma_start(cost);
#if FTM_TRACE_ENABLED
  if (trace::TraceSession* ts = trace::TraceSession::current()) {
    trace::Event e;
    e.name = route_span_name(req.route);
    e.cat = "dma";
    e.ts = trace_epoch_ + timelines_[c].done_time(h) - cost;
    e.dur = cost;
    e.cluster = id_;
    e.core = c;
    e.track = trace::TrackKind::Dma;
    e.arg("bytes", req.total_bytes());
    e.arg("rows", req.rows);
    e.arg("ddr_share", static_cast<std::uint64_t>(active_cores_));
    ts->record(e);
    ts->count("dma.transfers");
    ts->count(route_counter_name(req.route), req.total_bytes());
  }
#endif
  return h;
}

void Cluster::barrier() {
  std::uint64_t latest = 0;
  for (int i = 0; i < active_cores_; ++i) {
    if (timelines_[i].now() > latest) latest = timelines_[i].now();
  }
  for (int i = 0; i < active_cores_; ++i) timelines_[i].advance_to(latest);
}

std::uint64_t Cluster::max_time() const {
  std::uint64_t latest = 0;
  for (int i = 0; i < active_cores_; ++i) {
    if (timelines_[i].now() > latest) latest = timelines_[i].now();
  }
  return latest;
}

void Cluster::reset() {
  // Fold the finished run into the trace clock regardless of how many
  // cores were active for it (the makespan is the max over all lanes).
  std::uint64_t makespan = 0;
  for (const auto& t : timelines_) makespan = std::max(makespan, t.now());
  trace_epoch_ += makespan;
  for (auto& core : cores_) {
    core->sm().reset();
    core->am().reset();
    core->reset_registers();
  }
  for (auto& t : timelines_) t.reset();
  gsm_.reset();
  const double stall = fault_ != nullptr ? fault_->stall_multiplier(id_) : 1.0;
  if (stall != timelines_.front().time_scale()) {
    for (auto& t : timelines_) t.set_time_scale(stall);
  }
  if (fault_ != nullptr) {
    // A GEMM must not even start on a dead cluster; a stalled one runs,
    // but every cycle it charges is scaled by the stall multiplier.
    fault_->check_alive(id_);
    fault_->note_stalled_run(id_);
  }
}

double Cluster::cycles_to_seconds(std::uint64_t cycles) const {
  return static_cast<double>(cycles) / (mc_.freq_ghz * 1e9);
}

double Cluster::gflops(double flops, std::uint64_t cycles) const {
  const double secs = cycles_to_seconds(cycles);
  return secs <= 0 ? 0.0 : flops / secs / 1e9;
}

}  // namespace ftm::sim
