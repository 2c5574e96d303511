#include "runtime/epoch.hpp"

#include <limits>
#include <utility>

#include "common/require.hpp"

namespace de::runtime {

EpochTable::EpochTable(EpochPlan initial)
    : retired_below_(std::numeric_limits<int>::min()) {
  DE_REQUIRE(initial.from_seq >= 0,
             "the initial epoch must start at a valid image");
  epochs_.push_back(std::make_unique<EpochPlan>(std::move(initial)));
}

const EpochPlan& EpochTable::at(int seq) const {
  // Newest epoch whose from_seq covers seq; the table is small (one entry
  // per recent reconfiguration), so a reverse scan beats anything fancier.
  for (auto it = epochs_.rbegin(); it != epochs_.rend(); ++it) {
    if ((*it)->from_seq <= seq) return **it;
  }
  DE_REQUIRE(false, "no epoch covers the requested image");
  return *epochs_.front();  // unreachable
}

const EpochPlan* EpochTable::after(int seq) const {
  const EpochPlan* next = nullptr;
  for (auto it = epochs_.rbegin(); it != epochs_.rend(); ++it) {
    if ((*it)->from_seq <= seq) break;
    next = it->get();
  }
  return next;
}

bool EpochTable::knows(int epoch) const {
  for (const auto& e : epochs_) {
    if (e->epoch == epoch) return true;
  }
  return false;
}

void EpochTable::add(EpochPlan next) {
  if (next.epoch < retired_below_) return;  // a stale retransmission
  for (const auto& e : epochs_) {
    if (e->epoch != next.epoch) continue;
    // A retransmitted announcement repeats its content exactly; the same
    // id with a different cutover is a protocol violation.
    DE_REQUIRE(e->from_seq == next.from_seq,
               "conflicting announcements for one epoch id");
    return;
  }
  // Id-ordered insert: under faults, epoch E's announcement can be dropped
  // and retransmitted after E+1 already landed — a legal delivery order
  // the table must absorb. from_seq must stay monotone in id order. Only
  // the pointers move; EpochPlan references held by callers stay valid.
  auto pos = epochs_.begin();
  while (pos != epochs_.end() && (*pos)->epoch < next.epoch) ++pos;
  DE_REQUIRE(
      pos == epochs_.begin() || (*std::prev(pos))->from_seq <= next.from_seq,
      "epoch cutover seq regresses against its predecessor");
  DE_REQUIRE(pos == epochs_.end() || next.from_seq <= (*pos)->from_seq,
             "epoch cutover seq overtakes its successor");
  epochs_.insert(pos, std::make_unique<EpochPlan>(std::move(next)));
}

void EpochTable::retire(int watermark) {
  while (epochs_.size() >= 2 && epochs_[1]->from_seq <= watermark) {
    epochs_.pop_front();
    retired_below_ = oldest();
  }
}

EpochPlan epoch_from_reconfigure(const rpc::ReconfigureMsg& msg,
                                 const cnn::CnnModel& model) {
  EpochPlan next;
  next.epoch = msg.epoch;
  next.from_seq = msg.from_seq;
  next.strategy.volumes = msg.volumes;
  next.strategy.cuts = msg.cuts;
  // build_transfer_plan validates volumes/cuts against the model and throws
  // de::Error on anything inconsistent.
  next.plan = build_transfer_plan(model, next.strategy, msg.n_devices);
  return next;
}

rpc::ReconfigureMsg reconfigure_from_epoch(const EpochPlan& next) {
  rpc::ReconfigureMsg msg;
  msg.epoch = next.epoch;
  msg.from_seq = next.from_seq;
  msg.n_devices = next.plan.n_devices;
  msg.volumes = next.strategy.volumes;
  msg.cuts = next.strategy.cuts;
  return msg;
}

}  // namespace de::runtime
