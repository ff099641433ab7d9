#include "stream.h"

#include <utility>

namespace enforcebench {

namespace {

// Synthetic MIMIC defaults (MimicConfig): patient ids are 0..kPatients-1,
// order ids 0..kOrders-1, users 0..kUsers-1.
constexpr int64_t kPatients = 33000;
constexpr int64_t kOrders = 20000;
constexpr int64_t kUsers = 64;

// Clock ticks per Execute. The paper's harness steps 10 ticks (10 "ms") per
// query. Analytic ops instead advance by roughly their own latency in ms, so
// the 3,000-tick P5 window spans the same wall time it would in production
// and windowed policy state reaches its steady size during warm-up.
constexpr int64_t kDefaultTicks = 10;
int64_t AnalyticTicks(int width) {
  switch (width) {
    case 1:
      return 40;
    case 70:
      return 250;
    default:
      return 280;
  }
}

std::string N(int64_t v) { return std::to_string(v); }

// W2 (width 1, equality on the patient) or the W3/W4 range shape over
// `width` patients starting at `start`.
std::string AnalyticSql(int64_t start, int width) {
  std::string where =
      width == 1 ? "c.subject_id = " + N(start)
                 : "c.subject_id >= " + N(start) + " AND c.subject_id < " +
                       N(start + width);
  return "SELECT c.subject_id, p.sex, COUNT(c.subject_id) "
         "FROM chartevents c, d_patients p WHERE " +
         where +
         " AND p.subject_id = c.subject_id AND c.itemid = 211 "
         "GROUP BY c.subject_id, p.sex HAVING COUNT(c.subject_id) > " +
         (width == 1 ? "1" : "10");
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kAnalytic, Workload::kAuditMix}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kAnalytic:
      return "analytic";
    case Workload::kAuditMix:
      return "audit_mix";
  }
  return "?";
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kPoint:
      return "point";
    case OpKind::kAnalytic:
      return "analytic";
    case OpKind::kReject:
      return "reject";
    case OpKind::kProbe:
      return "probe";
    case OpKind::kAudit:
      return "audit";
    case OpKind::kWrite:
      return "write";
  }
  return "?";
}

OpStream::OpStream(Workload workload, uint64_t seed)
    : rng_(seed) {
  auto add = [&](int count, OpKind kind, int width = 0,
                 User user = User::kDraw) {
    for (int i = 0; i < count; ++i) slots_.push_back({kind, width, user});
  };
  switch (workload) {
    case Workload::kAnalytic:
      add(1, OpKind::kAnalytic, 1, User::kUid1);
      add(5, OpKind::kAnalytic, 1, User::kOther);
      add(2, OpKind::kAnalytic, 70, User::kUid1);
      add(6, OpKind::kAnalytic, 70, User::kOther);
      add(2, OpKind::kAnalytic, 650, User::kUid1);
      add(4, OpKind::kAnalytic, 650, User::kOther);
      break;
    case Workload::kAuditMix:
      add(10, OpKind::kPoint);
      add(3, OpKind::kReject, 0, User::kUid1);
      add(3, OpKind::kProbe);
      add(2, OpKind::kAudit);
      add(2, OpKind::kWrite);
      break;
  }
  next_in_block_ = slots_.size();
}

void OpStream::RefillBlock() {
  block_.resize(slots_.size());
  for (size_t i = 0; i < block_.size(); ++i) block_[i] = i;
  for (size_t i = block_.size(); i > 1; --i) {
    std::swap(block_[i - 1], block_[Below(i)]);
  }
  next_in_block_ = 0;
}

int64_t OpStream::DrawUid(User user) {
  if (user == User::kDraw) user = Below(4) == 0 ? User::kUid1 : User::kOther;
  if (user == User::kUid1) return 1;
  int64_t uid = int64_t(Below(kUsers - 1));  // the 63 users other than 1
  return uid >= 1 ? uid + 1 : uid;
}

std::string OpStream::PointSql() {
  return "SELECT * FROM d_patients WHERE subject_id = " +
         N(int64_t(Below(kPatients)));
}

Op OpStream::Next() {
  if (next_in_block_ == slots_.size()) RefillBlock();
  const Slot& slot = slots_[block_[next_in_block_++]];
  Op op;
  op.kind = slot.kind;
  op.uid = DrawUid(slot.user);
  op.ticks = kDefaultTicks;
  switch (op.kind) {
    case OpKind::kPoint:
      op.sql = PointSql();
      break;
    case OpKind::kAnalytic:
      op.sql = AnalyticSql(int64_t(Below(kPatients - slot.width + 1)),
                           slot.width);
      op.ticks = AnalyticTicks(slot.width);
      break;
    case OpKind::kReject:
      op.sql =
          "SELECT o.medication, p.sex FROM poe_order o, d_patients p "
          "WHERE o.order_id = " +
          N(int64_t(Below(kOrders))) + " AND o.subject_id = p.subject_id";
      break;
    case OpKind::kProbe:
      op.sql = Below(2) == 0 ? PointSql()
                             : AnalyticSql(int64_t(Below(kPatients)), 1);
      op.ticks = 0;
      break;
    case OpKind::kAudit:
      op.sql =
          "SELECT u.uid, COUNT(p.itid) FROM users u, provenance p "
          "WHERE u.ts = p.ts AND u.uid = " +
          N(op.uid) + " GROUP BY u.uid";
      op.ticks = 0;
      break;
    case OpKind::kWrite: {
      int64_t n = writes_++;
      // Alternate a new heart-rate-free chartevents reading with a change
      // of group X, which P1 joins: a user that never queries joins the
      // group and leaves it again at the next group write, so P1's
      // verdicts stay the same. Group X does not grow with the run (with a
      // growing group, policy-checked ops slowed 1.7-2.5x over a 45 s
      // run), so every run measures the same steady state whatever its
      // length.
      if (n % 2 == 0) {
        int64_t item = 100 + int64_t(Below(200));
        if (item == 211) item = 212;  // keep W2-W4 group sizes fixed
        op.sql = "INSERT INTO chartevents VALUES (" +
                 N(int64_t(Below(kPatients))) + ", " + N(item) + ", " +
                 N(1000000 + n) + ", " + N(40 + int64_t(Below(100))) +
                 ".5)";
      } else {
        int64_t change = n / 2;
        int64_t member = 1000 + change / 2;
        op.sql = change % 2 == 0
                     ? "INSERT INTO groups VALUES (" + N(member) + ", 'X')"
                     : "DELETE FROM groups WHERE uid = " + N(member);
      }
      op.ticks = 0;
      break;
    }
  }
  return op;
}

}  // namespace enforcebench
