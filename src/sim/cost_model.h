#ifndef HERON_SIM_COST_MODEL_H_
#define HERON_SIM_COST_MODEL_H_

#include <cstdint>
#include <string>

namespace heron {
namespace sim {

/// \brief Per-operation costs (nanoseconds) of the Heron data plane, the
/// inputs to the discrete-event experiments.
///
/// The defaults are calibrated from the microbenchmarks on the real
/// components in this repository (bench/micro_serde, micro_tuple_cache,
/// micro_ipc; see EXPERIMENTS.md for the calibration table measured on
/// the build machine). The *ratios* between optimized and unoptimized
/// paths come straight from those measurements; absolute values carry the
/// usual single-machine noise, which is fine — the reproduction targets
/// the paper's shapes, not its absolute testbed numbers.
struct HeronCostModel {
  // User logic (WordCount: pick a word / count a word).
  double spout_user_ns = 250;
  double bolt_user_ns = 220;

  // Instance-side serialization boundary (per tuple).
  double inst_serialize_ns = 180;
  double inst_deserialize_ns = 210;

  // Stream Manager routing (per tuple).
  double route_optimized_ns = 100;     ///< Lazy: hash serialized bytes.
  double route_unoptimized_ns = 560;   ///< Eager: full parse + rebuild.

  // SMGR transit hop for batches between containers.
  double transit_peek_per_batch_ns = 300;      ///< Optimized: dest peek only.
  double transit_reser_per_tuple_ns = 520;     ///< Ablation: parse + reser.

  // Allocation overhead when the object/buffer pools are disabled
  // (per pooled object the optimized path would have reused).
  double alloc_ns = 70;

  // Fixed per-batch channel/socket overheads.
  double batch_send_ns = 2500;
  double batch_recv_ns = 2000;

  // Inter-container network: latency per batch plus per-tuple wire time.
  double network_batch_ns = 60000;
  double network_tuple_ns = 6;

  // Ack management (per tuple / per event).
  double tracker_register_ns = 160;
  double ack_update_ns = 240;
  /// Priced per tree. The live engine ships root events batched (one
  /// envelope per spout per ack batch), but the gated DES headlines rest
  /// on this table until it is calibrated from measured costs.
  double root_event_ns = 260;
  double spout_ack_ns = 260;  ///< Spout-side Ack() + bookkeeping.
  /// Extra per-ack cost on the ablated path: the naive engine fully
  /// parses and rebuilds ack batches at each hop and allocates tracker
  /// plumbing per update, just as it does for data batches.
  double ack_unopt_extra_ns = 1250;

  /// Approximate serialized tuple size (WordCount word), for the cache
  /// size-cap drain model.
  double tuple_bytes = 40;
};

/// \brief Per-operation costs of the Storm-style specialized baseline.
///
/// The structural differences of §III-A are encoded in *which* costs are
/// paid where (see sim/storm_model.h); these constants cover the
/// per-operation prices. Kryo-style per-tuple serialization and per-tuple
/// executor dispatch are costlier than Heron's batched wire format —
/// ratios again taken from the microbenchmarks (full parse/rebuild vs
/// batched append).
struct StormCostModel {
  double spout_user_ns = 250;
  double bolt_user_ns = 220;

  double dispatch_per_message_ns = 90;  ///< Queue hop inside a worker.
  double copy_alloc_ns = 70;             ///< Per-destination tuple copy.
  double serialize_ns = 160;             ///< Inter-worker, per tuple.
  double deserialize_ns = 200;           ///< Inter-worker, per tuple.
  /// Netty-style transfer amortizes framing across whatever is queued, so
  /// the model carries the whole cost per tuple (no per-batch constant —
  /// destination fan-out makes sub-batches arbitrarily small).
  double transfer_per_tuple_ns = 160;
  double transfer_per_batch_ns = 0;
  double network_batch_ns = 60000;
  double network_tuple_ns = 6;

  double acker_process_ns = 700;   ///< Per acker message (init/ack).
  double spout_ack_ns = 300;

  /// Disruptor-style batch size (much smaller than Heron's cache
  /// batches).
  int batch_size = 64;

  /// Thread oversubscription inside a worker: executors + transfer +
  /// receive threads share the worker's provisioned cores.
  double oversubscription = 1.25;
};

/// \brief Analytic model of the re-emission work a recovery performs,
/// used by bench/figures/recovery_checkpoint_interval to sanity-check the
/// measured shape.
///
/// With aligned checkpoints every `interval_sec`, a kill at `kill_at_sec`
/// rolls the topology back to the last complete checkpoint; the spouts
/// re-emit only the suffix since that snapshot — at most one interval of
/// history, regardless of how long the topology ran:
///   work = rate * (kill_at mod interval)   (bounded by rate * interval)
/// Replay-from-scratch recovery (no snapshots: rebuild state by replaying
/// the full history) instead re-emits everything:
///   work = rate * kill_at
/// The crossover is the whole story of the figure: snapshot restore is
/// interval-bounded, replay grows linearly with uptime.
inline double SnapshotRecoveryWork(double rate_per_sec, double interval_sec,
                                   double kill_at_sec) {
  if (interval_sec <= 0) return rate_per_sec * kill_at_sec;
  const double since_checkpoint =
      kill_at_sec - interval_sec * static_cast<int64_t>(kill_at_sec /
                                                        interval_sec);
  return rate_per_sec * since_checkpoint;
}

inline double ReplayRecoveryWork(double rate_per_sec, double kill_at_sec) {
  return rate_per_sec * kill_at_sec;
}

}  // namespace sim
}  // namespace heron

#endif  // HERON_SIM_COST_MODEL_H_
