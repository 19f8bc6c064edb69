#ifndef DMLSCALE_CORE_COMMUNICATION_MODEL_H_
#define DMLSCALE_CORE_COMMUNICATION_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/hardware.h"
#include "core/network.h"

namespace dmlscale::core {

/// Communication time complexity `tcm = fcm(M, n)` (Section III). Each
/// subclass fixes the shape of `fcm` for one collective and the message
/// volume `M` at construction, in two layers:
///
///  - `Traffic(n)` emits the collective's TRAFFIC PATTERN: per-round
///    point-to-point flows, independent of any fabric, run-length encoded
///    (each distinct round once, with its `repeat` count).
///  - `Seconds(n)` prices that pattern on the model's NetworkSpec
///    (topology + queueing, see network.h), routing and pricing each
///    distinct round once. On the ideal network — the
///    non-blocking, queue-free crossbar the paper assumes — pricing
///    short-circuits to `ClosedFormSeconds(n)`, the paper's closed form
///    verbatim, so legacy results stay bit-identical. Any other network
///    routes the pattern over shared links and adds queueing delay, which
///    is where the closed forms' optimism becomes measurable.
///
/// All models return 0 for n == 1 (nothing to communicate).
class CommunicationModel {
 public:
  virtual ~CommunicationModel() = default;

  /// Time in seconds for the collective to complete on `n` >= 1 nodes:
  /// the closed form on the ideal network, the priced traffic pattern
  /// otherwise. Virtual so aggregates (CompositeComm) can sum stages.
  virtual double Seconds(int n) const;

  /// Human-readable collective name for reports ("ring-allreduce").
  virtual std::string name() const = 0;

  /// `name()` plus the network decoration ("ring-allreduce@fat-tree(...)/
  /// mm1"); equals name() on the ideal network. Reports use this so
  /// topology-ablation rows stay unambiguous.
  std::string label() const { return name() + network_.Decoration(); }

  /// The collective's per-round flows on `n` >= 1 nodes (empty for n == 1).
  /// Identical consecutive rounds are emitted once with `repeat` set, so
  /// repetitive collectives stay O(distinct flows): the ring's 2(n-1)
  /// identical shifts are one n-flow round, not ~2*10^8 flows at n = 10k.
  virtual TrafficPattern Traffic(int n) const = 0;

  const NetworkSpec& network() const { return network_; }
  const LinkSpec& link() const { return link_; }

 protected:
  explicit CommunicationModel(LinkSpec link = {}, NetworkSpec network = {})
      : link_(link), network_(std::move(network)) {}

  /// The paper's contention-free expression — the value of Seconds(n > 1)
  /// on the ideal network, preserved bit-for-bit from before the network
  /// layer existed.
  virtual double ClosedFormSeconds(int n) const = 0;

 private:
  LinkSpec link_;
  NetworkSpec network_;
};

/// No communication at all — e.g. the shared-memory assumption of the
/// paper's belief-propagation experiment (Section V-B).
class SharedMemoryComm final : public CommunicationModel {
 public:
  SharedMemoryComm() = default;
  std::string name() const override { return "shared-memory"; }
  TrafficPattern Traffic(int n) const override;

 protected:
  double ClosedFormSeconds(int /*n*/) const override { return 0.0; }
};

/// Linear (sequential) gather/scatter through a single master:
/// `tcm = (bits * n) / B`. This is the "linear communication architecture"
/// of Sparks et al. the paper contrasts against (Sections II, V-A).
class LinearComm final : public CommunicationModel {
 public:
  /// `bits_per_node`: data each node exchanges with the master.
  LinearComm(double bits_per_node, LinkSpec link, NetworkSpec network = {});
  std::string name() const override { return "linear"; }
  TrafficPattern Traffic(int n) const override;

 protected:
  double ClosedFormSeconds(int n) const override;

 private:
  double bits_per_node_;
};

/// One fixed-size transfer whose duration does not depend on `n`:
/// `tcm = bits / B` for n > 1. Used for the graphical-model replication
/// traffic `32/B * r * V * S` (Section IV-B).
class FixedVolumeComm final : public CommunicationModel {
 public:
  FixedVolumeComm(double bits, LinkSpec link, NetworkSpec network = {});
  std::string name() const override { return "fixed-volume"; }
  TrafficPattern Traffic(int n) const override;

 protected:
  double ClosedFormSeconds(int n) const override;

 private:
  double bits_;
};

/// Tree-structured collective: `tcm = (bits / B) * ceil(log2(n))`.
/// `rounds_factor` scales the number of traversals; the paper's generic
/// gradient-descent model uses 2 (scatter + gather, Section IV-A).
class TreeComm final : public CommunicationModel {
 public:
  TreeComm(double bits, LinkSpec link, double rounds_factor = 1.0,
           NetworkSpec network = {});
  std::string name() const override { return "tree-log"; }
  TrafficPattern Traffic(int n) const override;

 protected:
  double ClosedFormSeconds(int n) const override;

 private:
  double bits_;
  double rounds_factor_;
};

/// Spark's torrent-like broadcast: `tcm = (bits / B) * log2(n)` with a
/// continuous logarithm (blocks pipeline among peers, Section V-A).
class TorrentBroadcastComm final : public CommunicationModel {
 public:
  TorrentBroadcastComm(double bits, LinkSpec link, NetworkSpec network = {});
  std::string name() const override { return "torrent-broadcast"; }
  TrafficPattern Traffic(int n) const override;

 protected:
  double ClosedFormSeconds(int n) const override;

 private:
  double bits_;
};

/// Spark's two-wave aggregation: the first wave reduces over ceil(sqrt(n))
/// groups, the second over the rest: `tcm = 2 * (bits / B) * ceil(sqrt(n))`
/// (Section V-A).
class TwoWaveAggregationComm final : public CommunicationModel {
 public:
  TwoWaveAggregationComm(double bits, LinkSpec link, NetworkSpec network = {});
  std::string name() const override { return "two-wave-sqrt"; }
  TrafficPattern Traffic(int n) const override;

 protected:
  double ClosedFormSeconds(int n) const override;

 private:
  double bits_;
};

/// Ring all-reduce (MPI style): `tcm = 2 * (bits / B) * (n - 1) / n`.
/// Included as the bandwidth-optimal baseline the ablation compares against.
class RingAllReduceComm final : public CommunicationModel {
 public:
  RingAllReduceComm(double bits, LinkSpec link, NetworkSpec network = {});
  std::string name() const override { return "ring-allreduce"; }
  /// One n-flow ring shift with repeat = 2(n-1).
  TrafficPattern Traffic(int n) const override;

 protected:
  double ClosedFormSeconds(int n) const override;

 private:
  double bits_;
};

/// Recursive-doubling (butterfly) all-reduce: ceil(log2(n)) rounds, each
/// exchanging the full payload pairwise: `tcm = (bits / B) * ceil(log2 n)`.
/// Latency-optimal where the ring is bandwidth-optimal; MPI picks between
/// the two by message size.
class RecursiveDoublingComm final : public CommunicationModel {
 public:
  RecursiveDoublingComm(double bits, LinkSpec link, NetworkSpec network = {});
  std::string name() const override { return "recursive-doubling"; }
  TrafficPattern Traffic(int n) const override;

 protected:
  double ClosedFormSeconds(int n) const override;

 private:
  double bits_;
};

/// MapReduce/Spark shuffle: every node exchanges `bits_total / n` with every
/// other node over its single NIC: `tcm = (bits_total / B) * (n - 1) / n`.
class ShuffleComm final : public CommunicationModel {
 public:
  ShuffleComm(double bits_total, LinkSpec link, NetworkSpec network = {});
  std::string name() const override { return "shuffle"; }
  TrafficPattern Traffic(int n) const override;

 protected:
  double ClosedFormSeconds(int n) const override;

 private:
  double bits_total_;
};

/// Sum of stages, e.g. Spark gradient descent = torrent broadcast followed
/// by two-wave aggregation (Section V-A). Each stage prices its own traffic
/// on its own network; the composite's Seconds/Traffic are their sums. Its
/// `network` only decorates the label (stages are built on the same fabric).
class CompositeComm final : public CommunicationModel {
 public:
  explicit CompositeComm(
      std::vector<std::unique_ptr<CommunicationModel>> stages,
      NetworkSpec network = {});
  double Seconds(int n) const override;
  std::string name() const override;
  TrafficPattern Traffic(int n) const override;

  /// Builder-style helper.
  static std::unique_ptr<CompositeComm> Of(
      std::unique_ptr<CommunicationModel> a,
      std::unique_ptr<CommunicationModel> b);

 protected:
  double ClosedFormSeconds(int n) const override;

 private:
  std::vector<std::unique_ptr<CommunicationModel>> stages_;
};

}  // namespace dmlscale::core

#endif  // DMLSCALE_CORE_COMMUNICATION_MODEL_H_
