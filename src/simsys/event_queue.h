#ifndef GPUPERF_SIMSYS_EVENT_QUEUE_H_
#define GPUPERF_SIMSYS_EVENT_QUEUE_H_

/**
 * @file
 * A pure event-driven simulation kernel in the MGPUSim style the paper's
 * case study 2 uses: no cycle loop, time advances from event to event, so
 * whole networks simulate in microseconds of wall time.
 */

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace gpuperf::simsys {

/** Fires a payload that is itself callable: the default for EventQueue. */
struct InvokeEvent {
  template <typename Event>
  void operator()(Event& event) const {
    event();
  }
};

/**
 * A discrete-event scheduler with microsecond timestamps, templated on
 * the payload an event carries. `EventQueue<>` holds closures and fires
 * each by calling it (disagg, data-parallel, link). A simulation with a
 * fixed set of event kinds can instead schedule a small plain record and
 * pass the Run* calls one handler that switches on it (serving), so an
 * event costs its simulated work, not an allocation.
 *
 * Event order: every event carries a unique `(time, sequence)` key —
 * its timestamp, then a sequence number drawn when it was scheduled
 * (FIFO among simultaneous events) — and events fire in ascending key
 * order. The pop order is a function of the keys alone, not of when an
 * entry entered the heap, nor of the payload type. So an event may be
 * inserted late under a sequence number reserved earlier
 * (ReserveSequences / ScheduleReserved) and fire exactly where it would
 * have had it been scheduled at reservation time, provided it is
 * inserted before any event with a larger key fires. Serving uses this
 * to keep one pending arrival in the heap instead of pre-scheduling the
 * whole run.
 */
template <typename Event = std::function<void()>>
class EventQueue {
 public:
  /** Schedules `event` at absolute simulated time `time_us`. */
  void Schedule(double time_us, Event event);

  /**
   * Sets aside `count` consecutive sequence numbers for later
   * ScheduleReserved calls and returns the first. Events scheduled
   * afterwards draw larger sequence numbers, so a reserved event wins
   * every same-timestamp tie against them.
   */
  std::int64_t ReserveSequences(std::int64_t count);

  /**
   * Schedules `event` at `time_us` under `sequence`, which must come
   * from an earlier ReserveSequences call and be used at most once.
   * Like Schedule, `time_us` must not be in the past; the caller must
   * also insert the event before any event with a larger key fires (see
   * the class comment).
   */
  void ScheduleReserved(double time_us, std::int64_t sequence, Event event);

  /** Schedules `event` `delay_us` after the current time. */
  void ScheduleAfter(double delay_us, Event event);

  /** Current simulated time (the timestamp of the last fired event). */
  double NowUs() const { return now_us_; }

  /** True when no events remain. */
  bool empty() const { return queue_.empty(); }

  /**
   * Timestamp of the next event without firing it (queue must not be
   * empty). Lets the flight recorder close sample windows *before* an
   * event executes, without scheduling events of its own — inserted
   * events would shift sequence numbers and could reorder
   * same-timestamp events.
   */
  double NextTimeUs() const { return queue_.top().time_us; }

  /**
   * Fires the next event by passing its payload to `fire`; returns
   * false if the queue is empty. The payload is moved out of the heap
   * first, so `fire` may schedule new events.
   */
  template <typename Fire = InvokeEvent>
  bool RunOne(Fire&& fire = Fire()) {
    if (queue_.empty()) return false;
    Entry entry = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    now_us_ = entry.time_us;
    ++fired_count_;
    fire(entry.event);
    return true;
  }

  /** Runs until no events remain. */
  template <typename Fire = InvokeEvent>
  void Run(Fire&& fire = Fire()) {
    while (RunOne(fire)) {
    }
  }

  /**
   * Fires events with timestamps strictly before `t_us`, then returns
   * (with the first event at or past `t_us` still queued). Lets the
   * flight recorder run the queue in window-sized chunks: the per-event
   * cost over Run() is one timestamp comparison, and window closes
   * happen between chunks instead of being checked before every event.
   */
  template <typename Fire = InvokeEvent>
  void RunUntil(double t_us, Fire&& fire = Fire()) {
    while (!queue_.empty() && queue_.top().time_us < t_us) RunOne(fire);
  }

  /** Events fired so far (statistics). */
  std::int64_t fired_count() const { return fired_count_; }

 private:
  struct Entry {
    double time_us;
    std::int64_t sequence;  // FIFO tie-break for simultaneous events
    Event event;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time_us != b.time_us) return a.time_us > b.time_us;
      return a.sequence > b.sequence;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  double now_us_ = 0;
  std::int64_t next_sequence_ = 0;
  std::int64_t fired_count_ = 0;
};

template <typename Event>
void EventQueue<Event>::Schedule(double time_us, Event event) {
  GP_CHECK_GE(time_us, now_us_) << "cannot schedule into the past";
  queue_.push({time_us, next_sequence_++, std::move(event)});
}

template <typename Event>
std::int64_t EventQueue<Event>::ReserveSequences(std::int64_t count) {
  GP_CHECK_GE(count, 0);
  const std::int64_t first = next_sequence_;
  next_sequence_ += count;
  return first;
}

template <typename Event>
void EventQueue<Event>::ScheduleReserved(double time_us,
                                         std::int64_t sequence,
                                         Event event) {
  GP_CHECK_GE(time_us, now_us_) << "cannot schedule into the past";
  GP_CHECK(sequence >= 0 && sequence < next_sequence_)
      << "sequence " << sequence << " was not reserved";
  queue_.push({time_us, sequence, std::move(event)});
}

template <typename Event>
void EventQueue<Event>::ScheduleAfter(double delay_us, Event event) {
  GP_CHECK_GE(delay_us, 0.0);
  Schedule(now_us_ + delay_us, std::move(event));
}

// The closure queue is compiled once, in event_queue.cc.
extern template class EventQueue<std::function<void()>>;

}  // namespace gpuperf::simsys

#endif  // GPUPERF_SIMSYS_EVENT_QUEUE_H_
