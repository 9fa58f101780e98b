#include "simsys/event_queue.h"

namespace gpuperf::simsys {

template class EventQueue<std::function<void()>>;

}  // namespace gpuperf::simsys
