#include "simsys/event_queue.h"

#include <utility>

#include "common/logging.h"

namespace gpuperf::simsys {

void EventQueue::Schedule(double time_us, Callback callback) {
  GP_CHECK_GE(time_us, now_us_) << "cannot schedule into the past";
  queue_.push({time_us, next_sequence_++, std::move(callback)});
}

std::int64_t EventQueue::ReserveSequences(std::int64_t count) {
  GP_CHECK_GE(count, 0);
  const std::int64_t first = next_sequence_;
  next_sequence_ += count;
  return first;
}

void EventQueue::ScheduleReserved(double time_us, std::int64_t sequence,
                                  Callback callback) {
  GP_CHECK_GE(time_us, now_us_) << "cannot schedule into the past";
  GP_CHECK(sequence >= 0 && sequence < next_sequence_)
      << "sequence " << sequence << " was not reserved";
  queue_.push({time_us, sequence, std::move(callback)});
}

void EventQueue::ScheduleAfter(double delay_us, Callback callback) {
  GP_CHECK_GE(delay_us, 0.0);
  Schedule(now_us_ + delay_us, std::move(callback));
}

void EventQueue::Run() {
  while (RunOne()) {
  }
}

void EventQueue::RunUntil(double t_us) {
  while (!queue_.empty() && queue_.top().time_us < t_us) {
    RunOne();
  }
}

}  // namespace gpuperf::simsys
