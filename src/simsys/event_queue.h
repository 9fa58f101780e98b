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
#include <vector>

namespace gpuperf::simsys {

/**
 * A discrete-event scheduler with microsecond timestamps.
 *
 * Event order: every event carries a unique `(time, sequence)` key —
 * its timestamp, then a sequence number drawn when it was scheduled
 * (FIFO among simultaneous events) — and events fire in ascending key
 * order. The pop order is a function of the keys alone, not of when an
 * entry entered the heap. So an event may be inserted late under a
 * sequence number reserved earlier (ReserveSequences /
 * ScheduleReserved) and fire exactly where it would have had it been
 * scheduled at reservation time, provided it is inserted before any
 * event with a larger key fires. Serving uses this to keep one pending
 * arrival in the heap instead of pre-scheduling the whole run.
 */
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /** Schedules `callback` at absolute simulated time `time_us`. */
  void Schedule(double time_us, Callback callback);

  /**
   * Sets aside `count` consecutive sequence numbers for later
   * ScheduleReserved calls and returns the first. Events scheduled
   * afterwards draw larger sequence numbers, so a reserved event wins
   * every same-timestamp tie against them.
   */
  std::int64_t ReserveSequences(std::int64_t count);

  /**
   * Schedules `callback` at `time_us` under `sequence`, which must come
   * from an earlier ReserveSequences call and be used at most once.
   * Like Schedule, `time_us` must not be in the past; the caller must
   * also insert the event before any event with a larger key fires (see
   * the class comment).
   */
  void ScheduleReserved(double time_us, std::int64_t sequence,
                        Callback callback);

  /** Schedules `callback` `delay_us` after the current time. */
  void ScheduleAfter(double delay_us, Callback callback);

  /** Current simulated time (the timestamp of the last fired event). */
  double NowUs() const { return now_us_; }

  /** True when no events remain. */
  bool empty() const { return queue_.empty(); }

  /**
   * Timestamp of the next event without firing it (queue must not be
   * empty). Lets the flight recorder close sample windows *before* an
   * event executes, without scheduling events of its own — inserted
   * events would shift sequence numbers and could reorder
   * same-timestamp callbacks.
   */
  double NextTimeUs() const { return queue_.top().time_us; }

  /**
   * Fires the next event; returns false if the queue is empty. Defined
   * in-class: serving's recorded path drives the queue one event at a
   * time (AdvanceTo between events), and a cross-TU call per event
   * would show up against the recorder's overhead budget.
   */
  bool RunOne() {
    if (queue_.empty()) return false;
    // The callback is moved out before firing so it may schedule new
    // events.
    Entry entry = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    now_us_ = entry.time_us;
    ++fired_count_;
    entry.callback();
    return true;
  }

  /** Runs until no events remain. */
  void Run();

  /**
   * Fires events with timestamps strictly before `t_us`, then returns
   * (with the first event at or past `t_us` still queued). Lets the
   * flight recorder run the queue in window-sized chunks: the per-event
   * cost over Run() is one timestamp comparison, and window closes
   * happen between chunks instead of being checked before every event.
   * Out-of-line like Run() on purpose — the event loop is hot enough
   * that its code placement is measurable, and compiling both loops in
   * the same translation unit keeps them on equal footing.
   */
  void RunUntil(double t_us);

  /** Events fired so far (statistics). */
  std::int64_t fired_count() const { return fired_count_; }

 private:
  struct Entry {
    double time_us;
    std::int64_t sequence;  // FIFO tie-break for simultaneous events
    Callback callback;
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

}  // namespace gpuperf::simsys

#endif  // GPUPERF_SIMSYS_EVENT_QUEUE_H_
