#ifndef DMLSCALE_CORE_TOPOLOGY_H_
#define DMLSCALE_CORE_TOPOLOGY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace dmlscale::core {

/// ---------------------------------------------------------------------------
/// Traffic patterns
/// ---------------------------------------------------------------------------
///
/// A communication model describes WHAT moves (per-round point-to-point
/// flows); a Topology describes WHERE it moves (which links each flow
/// crosses, at what bandwidth); a QueueModel (queueing.h) describes how
/// contention on a shared link converts offered load into waiting time.
/// The closed-form `tcm` of the paper is the special case of an ideal
/// (non-blocking, queue-free) network — see network.h.

/// One point-to-point transfer inside a collective round. `src == dst`
/// denotes a local (zero-link) hand-off and is priced as free.
struct Flow {
  int src = 0;
  int dst = 0;
  double bits = 0.0;
};

/// One synchronous round of a collective: flows released together, the round
/// ends when the last one is delivered. `repeat` scales the round's duration
/// — an integer for literal back-to-back repetitions (ring all-reduce is one
/// n-flow round with repeat 2(n-1)), a fraction for continuous-logarithm
/// models whose closed forms count log2(n) rounds against ceil(log2(n))
/// discrete ones. Pricers route and price a round once, then multiply.
struct TrafficRound {
  std::vector<Flow> flows;
  double repeat = 1.0;
};

/// The full per-collective pattern: rounds run back to back (BSP barrier
/// between rounds), total time = sum over rounds of repeat * round time.
struct TrafficPattern {
  std::vector<TrafficRound> rounds;

  TrafficRound& AddRound(double repeat = 1.0) {
    rounds.push_back(TrafficRound{.flows = {}, .repeat = repeat});
    return rounds.back();
  }

  /// Total bits crossing the network, weighted by round repeats.
  double TotalBits() const;
  /// Appends every round of `other` (composite collectives).
  void Append(const TrafficPattern& other);
};

/// ---------------------------------------------------------------------------
/// Topology
/// ---------------------------------------------------------------------------

/// Maps node pairs onto directed links. Links of an `n`-node instance are
/// dense integers in [0, NumLinks(n)); every link carries a bandwidth SCALE
/// relative to the cluster's edge LinkSpec (an oversubscribed fat-tree core
/// link scales below the pod's aggregate demand, a star backplane is a
/// single shared pipe). Hop latency is charged once per traversed link.
///
/// Topologies are stateless and shared between scenarios; all methods are
/// const and thread-safe.
class Topology {
 public:
  virtual ~Topology() = default;

  /// Parameterized display name, e.g. "fat-tree(pod=4;os=4)". Must not
  /// contain ',' (the sweep CSV emits it unquoted) nor '@'/'|' (reserved by
  /// eval-cache keys).
  virtual std::string name() const = 0;

  /// True for the non-blocking crossbar the paper's closed forms assume;
  /// combined with a free queue it short-circuits to those closed forms.
  virtual bool ideal() const { return false; }

  /// Number of directed links of the `n`-node instance.
  virtual int NumLinks(int n) const = 0;

  /// Appends the links of the `src -> dst` route to `path` (empty for
  /// src == dst). `src`/`dst` must be in [0, n).
  virtual void AppendRoute(int src, int dst, int n,
                           std::vector<int>* path) const = 0;

  /// Bandwidth of `link` as a multiple of the edge link's bandwidth.
  virtual double BandwidthScale(int link, int n) const;
};

/// The non-blocking crossbar: per-node egress (ids [0, n)) and ingress
/// (ids [n, 2n)) at full edge bandwidth; every route is {egress(src),
/// ingress(dst)}. Contention exists only at the endpoints — exactly the
/// assumption baked into the paper's closed forms.
class IdealSwitchTopology final : public Topology {
 public:
  std::string name() const override { return "ideal-switch"; }
  bool ideal() const override { return true; }
  int NumLinks(int n) const override { return 2 * n; }
  void AppendRoute(int src, int dst, int n,
                   std::vector<int>* path) const override;
};

/// A single switch whose backplane is one shared link: routes are
/// {egress(src), backplane, ingress(dst)}. `backplane_scale` is the
/// backplane's bandwidth in edge-link multiples (1.0 = every collective
/// fully serializes through it — the worst credible switch).
class StarTopology final : public Topology {
 public:
  explicit StarTopology(double backplane_scale = 1.0);
  std::string name() const override;
  int NumLinks(int n) const override { return 2 * n + 1; }
  void AppendRoute(int src, int dst, int n,
                   std::vector<int>* path) const override;
  double BandwidthScale(int link, int n) const override;

 private:
  double backplane_scale_;
};

/// Two-level fat-tree / folded Clos: nodes partition into pods of
/// `pod_size`; intra-pod routes stay on the pod switch ({egress, ingress}),
/// inter-pod routes add the pod's up and down links to the core
/// ({egress, up(pod(src)), down(pod(dst)), ingress}). Up/down links
/// aggregate pod_size edge links divided by `oversubscription` — the
/// paper-grade 4:1 oversubscribed data-center fabric is (pod_size=4, os=4).
class FatTreeTopology final : public Topology {
 public:
  FatTreeTopology(int pod_size = 4, double oversubscription = 1.0);
  std::string name() const override;
  int NumLinks(int n) const override;
  void AppendRoute(int src, int dst, int n,
                   std::vector<int>* path) const override;
  double BandwidthScale(int link, int n) const override;

  int pod_size() const { return pod_size_; }
  double oversubscription() const { return oversubscription_; }

 private:
  int NumPods(int n) const { return (n + pod_size_ - 1) / pod_size_; }

  int pod_size_;
  double oversubscription_;
};

/// 2D electrical mesh with XY dimension-order routing: node i sits at
/// (i % width, i / width) on a width x ceil(n/width) grid; each hop crosses
/// one directed neighbor link at edge bandwidth. `width == 0` picks
/// ceil(sqrt(n)) per instance. Neighbor traffic (rings) is almost
/// contention-free; all-to-all funnels through the mesh center.
class Mesh2dTopology final : public Topology {
 public:
  explicit Mesh2dTopology(int width = 0);
  std::string name() const override;
  /// 4 directed links per grid POSITION — XY routes can relay through
  /// positions beyond the last node on a partially filled bottom row.
  int NumLinks(int n) const override;
  void AppendRoute(int src, int dst, int n,
                   std::vector<int>* path) const override;

  /// Effective grid width for an n-node instance.
  int WidthFor(int n) const;

 private:
  int width_;
};

}  // namespace dmlscale::core

#endif  // DMLSCALE_CORE_TOPOLOGY_H_
