#include "core/communication_model.h"

#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace dmlscale::core {

namespace {
void CheckArgs(double bits, const LinkSpec& link) {
  DMLSCALE_CHECK_GE(bits, 0.0);
  DMLSCALE_CHECK_GT(link.bandwidth_bps, 0.0);
}
}  // namespace

double CommunicationModel::Seconds(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  if (n == 1) return 0.0;
  if (network_.Ideal()) return ClosedFormSeconds(n);
  return PatternSeconds(Traffic(n), n, link_, network_);
}

TrafficPattern SharedMemoryComm::Traffic(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  return {};
}

LinearComm::LinearComm(double bits_per_node, LinkSpec link, NetworkSpec network)
    : CommunicationModel(link, std::move(network)),
      bits_per_node_(bits_per_node) {
  CheckArgs(bits_per_node, link);
}

double LinearComm::ClosedFormSeconds(int n) const {
  return bits_per_node_ * n / link().bandwidth_bps + link().latency_s * n;
}

TrafficPattern LinearComm::Traffic(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  TrafficPattern pattern;
  if (n == 1) return pattern;
  // The master ingests one node at a time; round 0 is its own (free) local
  // hand-off, so the pattern spans n rounds like the closed form's n term.
  for (int i = 0; i < n; ++i) {
    pattern.AddRound().flows.push_back(Flow{i, 0, bits_per_node_});
  }
  return pattern;
}

FixedVolumeComm::FixedVolumeComm(double bits, LinkSpec link,
                                 NetworkSpec network)
    : CommunicationModel(link, std::move(network)), bits_(bits) {
  CheckArgs(bits, link);
}

double FixedVolumeComm::ClosedFormSeconds(int /*n*/) const {
  return bits_ / link().bandwidth_bps + link().latency_s;
}

TrafficPattern FixedVolumeComm::Traffic(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  TrafficPattern pattern;
  if (n == 1) return pattern;
  pattern.AddRound().flows.push_back(Flow{1, 0, bits_});
  return pattern;
}

TreeComm::TreeComm(double bits, LinkSpec link, double rounds_factor,
                   NetworkSpec network)
    : CommunicationModel(link, std::move(network)),
      bits_(bits),
      rounds_factor_(rounds_factor) {
  CheckArgs(bits, link);
  DMLSCALE_CHECK_GT(rounds_factor, 0.0);
}

double TreeComm::ClosedFormSeconds(int n) const {
  double rounds = static_cast<double>(CeilLog2(static_cast<uint64_t>(n)));
  return rounds_factor_ * rounds *
         (bits_ / link().bandwidth_bps + link().latency_s);
}

TrafficPattern TreeComm::Traffic(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  TrafficPattern pattern;
  if (n == 1) return pattern;
  // Binomial-tree reduction: in round r, node i + 2^r sends its partial to
  // node i for every i divisible by 2^(r+1). rounds_factor weights each
  // round (2 = the scatter+gather double traversal of Section IV-A).
  int rounds = CeilLog2(static_cast<uint64_t>(n));
  for (int r = 0; r < rounds; ++r) {
    TrafficRound& round = pattern.AddRound(rounds_factor_);
    const int stride = 1 << r;
    for (int i = 0; i + stride < n; i += 2 * stride) {
      round.flows.push_back(Flow{i + stride, i, bits_});
    }
  }
  return pattern;
}

TorrentBroadcastComm::TorrentBroadcastComm(double bits, LinkSpec link,
                                           NetworkSpec network)
    : CommunicationModel(link, std::move(network)), bits_(bits) {
  CheckArgs(bits, link);
}

double TorrentBroadcastComm::ClosedFormSeconds(int n) const {
  // Continuous log2, matching the paper's `(64W/B) * log(n)` term.
  return (bits_ / link().bandwidth_bps) * std::log2(static_cast<double>(n)) +
         link().latency_s * std::log2(static_cast<double>(n));
}

TrafficPattern TorrentBroadcastComm::Traffic(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  TrafficPattern pattern;
  if (n == 1) return pattern;
  // Doubling broadcast: holders [0, 2^r) seed peers [2^r, 2^(r+1)). The
  // closed form counts a continuous log2(n) rounds against the ceil(log2 n)
  // discrete ones, so each round carries weight log2(n) / ceil(log2 n).
  int rounds = CeilLog2(static_cast<uint64_t>(n));
  double repeat = std::log2(static_cast<double>(n)) / rounds;
  for (int r = 0; r < rounds; ++r) {
    TrafficRound& round = pattern.AddRound(repeat);
    const int holders = 1 << r;
    for (int i = 0; i < holders && i + holders < n; ++i) {
      round.flows.push_back(Flow{i, i + holders, bits_});
    }
  }
  return pattern;
}

TwoWaveAggregationComm::TwoWaveAggregationComm(double bits, LinkSpec link,
                                               NetworkSpec network)
    : CommunicationModel(link, std::move(network)), bits_(bits) {
  CheckArgs(bits, link);
}

double TwoWaveAggregationComm::ClosedFormSeconds(int n) const {
  double waves = 2.0 * static_cast<double>(CeilSqrt(static_cast<uint64_t>(n)));
  return waves * (bits_ / link().bandwidth_bps + link().latency_s);
}

TrafficPattern TwoWaveAggregationComm::Traffic(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  TrafficPattern pattern;
  if (n == 1) return pattern;
  // Wave 1: groups of size G = ceil(sqrt(n)) reduce onto their first member,
  // one member slot per round (Spark tasks on one executor serialize).
  // Wave 2: the group aggregators reduce onto node 0 the same way.
  const int group = CeilSqrt(static_cast<uint64_t>(n));
  for (int s = 1; s < group; ++s) {
    TrafficRound& round = pattern.AddRound();
    for (int head = 0; head + s < n; head += group) {
      round.flows.push_back(Flow{head + s, head, bits_});
    }
    if (round.flows.empty()) pattern.rounds.pop_back();
  }
  for (int head = group; head < n; head += group) {
    pattern.AddRound().flows.push_back(Flow{head, 0, bits_});
  }
  return pattern;
}

RingAllReduceComm::RingAllReduceComm(double bits, LinkSpec link,
                                     NetworkSpec network)
    : CommunicationModel(link, std::move(network)), bits_(bits) {
  CheckArgs(bits, link);
}

double RingAllReduceComm::ClosedFormSeconds(int n) const {
  double dn = static_cast<double>(n);
  return 2.0 * (bits_ / link().bandwidth_bps) * (dn - 1.0) / dn +
         2.0 * (dn - 1.0) * link().latency_s;
}

TrafficPattern RingAllReduceComm::Traffic(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  TrafficPattern pattern;
  if (n == 1) return pattern;
  // 2(n-1) identical rounds (reduce-scatter + all-gather); every round
  // shifts one bits/n chunk from each node to its ring successor
  // simultaneously.
  const double chunk = bits_ / static_cast<double>(n);
  TrafficRound& round = pattern.AddRound(2.0 * (n - 1));
  round.flows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    round.flows.push_back(Flow{i, (i + 1) % n, chunk});
  }
  return pattern;
}

RecursiveDoublingComm::RecursiveDoublingComm(double bits, LinkSpec link,
                                             NetworkSpec network)
    : CommunicationModel(link, std::move(network)), bits_(bits) {
  CheckArgs(bits, link);
}

double RecursiveDoublingComm::ClosedFormSeconds(int n) const {
  double rounds = static_cast<double>(CeilLog2(static_cast<uint64_t>(n)));
  return rounds * (bits_ / link().bandwidth_bps + link().latency_s);
}

TrafficPattern RecursiveDoublingComm::Traffic(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  TrafficPattern pattern;
  if (n == 1) return pattern;
  // Butterfly: round r pairs i with i XOR 2^r, both directions at full
  // payload. Partners past n-1 idle (the closed form rounds up anyway).
  int rounds = CeilLog2(static_cast<uint64_t>(n));
  for (int r = 0; r < rounds; ++r) {
    TrafficRound& round = pattern.AddRound();
    const int mask = 1 << r;
    for (int i = 0; i < n; ++i) {
      const int j = i ^ mask;
      if (j < n) round.flows.push_back(Flow{i, j, bits_});
    }
  }
  return pattern;
}

ShuffleComm::ShuffleComm(double bits_total, LinkSpec link, NetworkSpec network)
    : CommunicationModel(link, std::move(network)), bits_total_(bits_total) {
  CheckArgs(bits_total, link);
}

double ShuffleComm::ClosedFormSeconds(int n) const {
  double dn = static_cast<double>(n);
  // Each node sends (n-1)/n of its bits_total/n share over one NIC.
  double per_node_bits = (bits_total_ / dn) * (dn - 1.0) / dn;
  return per_node_bits / link().bandwidth_bps + link().latency_s;
}

TrafficPattern ShuffleComm::Traffic(int n) const {
  DMLSCALE_CHECK_GE(n, 1);
  TrafficPattern pattern;
  if (n == 1) return pattern;
  // One all-to-all round: every ordered pair exchanges its bits_total / n^2
  // partition. O(n^2) flows — fine analytically, heavy in the DES at large n.
  const double dn = static_cast<double>(n);
  const double pair_bits = bits_total_ / (dn * dn);
  TrafficRound& round = pattern.AddRound();
  round.flows.reserve(static_cast<size_t>(n) * (n - 1));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) round.flows.push_back(Flow{i, j, pair_bits});
    }
  }
  return pattern;
}

CompositeComm::CompositeComm(
    std::vector<std::unique_ptr<CommunicationModel>> stages,
    NetworkSpec network)
    : CommunicationModel(LinkSpec{}, std::move(network)),
      stages_(std::move(stages)) {
  DMLSCALE_CHECK(!stages_.empty());
}

double CompositeComm::Seconds(int n) const {
  double total = 0.0;
  for (const auto& stage : stages_) total += stage->Seconds(n);
  return total;
}

double CompositeComm::ClosedFormSeconds(int n) const { return Seconds(n); }

std::string CompositeComm::name() const {
  std::string out = "composite(";
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (i > 0) out += "+";
    out += stages_[i]->name();
  }
  out += ")";
  return out;
}

TrafficPattern CompositeComm::Traffic(int n) const {
  TrafficPattern pattern;
  for (const auto& stage : stages_) pattern.Append(stage->Traffic(n));
  return pattern;
}

std::unique_ptr<CompositeComm> CompositeComm::Of(
    std::unique_ptr<CommunicationModel> a,
    std::unique_ptr<CommunicationModel> b) {
  std::vector<std::unique_ptr<CommunicationModel>> stages;
  stages.push_back(std::move(a));
  stages.push_back(std::move(b));
  return std::make_unique<CompositeComm>(std::move(stages));
}

}  // namespace dmlscale::core
