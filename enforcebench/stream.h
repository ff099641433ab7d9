#ifndef ENFORCEBENCH_STREAM_H_
#define ENFORCEBENCH_STREAM_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace enforcebench {

/// The benchmark workloads. Each is a closed loop with one client: an
/// analyst submits one operation and waits for its verdict before the next.
enum class Workload { kAnalytic, kAuditMix };

/// Parses "analytic" / "audit_mix"; false for anything else.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// What an operation is, which fixes the public call that runs it and the
/// verdict it must get.
enum class OpKind {
  kPoint,     ///< Execute: W1-shaped point lookup, admitted
  kAnalytic,  ///< Execute: W2/W3/W4-shaped range join-aggregate, admitted
  kReject,    ///< Execute: uid 1 joins poe_order with d_patients, P2 rejects
  kProbe,     ///< WouldAllow: dry run of a W1 or W2 query, admitted
  kAudit,     ///< QueryUsageLog: per-user pricing read over the usage log
  kWrite,     ///< Execute: INSERT into chartevents, or a group-X membership
              ///< INSERT or DELETE in groups (no policy gate)
};
inline constexpr int kNumOpKinds = 6;
const char* OpKindName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kPoint;
  std::string sql;
  int64_t uid = 0;
  /// Clock ticks this operation advances the policy clock by (Execute of a
  /// SELECT only; probes, log reads and inserts never tick the clock).
  int64_t ticks = 10;
};

/// Deterministic operation stream: the same (workload, seed) always yields
/// the same operations, so the timed run, the traced run and the oracle
/// replay see identical inputs. Draws use only the raw 64-bit engine output
/// (no std:: distributions), so the stream is the same on every standard
/// library.
///
/// Operation kinds come in shuffled blocks of fixed composition, so every
/// block holds each kind of the workload and the mix does not drift with
/// the seed:
///  - analytic:  per 20 ops, 6 of width 1 (W2), 8 of width 70 (W3), 6 of
///               width 650 (W4); uid 1, whose provenance P5 keeps for 3,000
///               ticks, runs 1, 2 and 2 of them, so the retained log does not
///               swing with the seed;
///  - audit_mix: per 20 ops, 10 point, 3 reject, 3 probe, 2 audit, 2 write
///               (one chartevents reading, one group-X member joining or
///               leaving).
/// Where a block does not fix the user, it is uid 1 (the user P2-P6 watch)
/// with probability 1/4 and otherwise one of the 63 other users, uniformly.
class OpStream {
 public:
  OpStream(Workload workload, uint64_t seed);

  Op Next();

  /// Ops per shuffled block; each block holds every op kind of the
  /// workload.
  size_t block_size() const { return slots_.size(); }

 private:
  /// Who runs a block slot's op.
  enum class User { kDraw, kUid1, kOther };
  struct Slot {
    OpKind kind;
    int width = 0;  ///< analytic range width
    User user = User::kDraw;
  };

  uint64_t Below(uint64_t n) { return rng_() % n; }
  int64_t DrawUid(User user);
  std::string PointSql();
  void RefillBlock();

  std::mt19937_64 rng_;
  std::vector<Slot> slots_;         ///< one block, in canonical order
  std::vector<size_t> block_;       ///< shuffled slots of the current block
  size_t next_in_block_ = 0;
  int64_t writes_ = 0;              ///< write ops this stream has made
};

}  // namespace enforcebench

#endif  // ENFORCEBENCH_STREAM_H_
