#include "src/obs/legs.hpp"

#include <utility>

#include "src/sim/combinators.hpp"

namespace uvs::obs {

namespace {
/// Records a span covering `inner`'s lifetime. Awaiting `inner` is a
/// symmetric transfer, so the wrapper adds no engine event.
sim::Task Tagged(sim::Engine& engine, const char* category, const char* name, Track track,
                 Bytes bytes, SpanTag tag, sim::Task inner) {
  SpanTimer span(engine, category, name, track, bytes, tag);
  co_await std::move(inner);
}
}  // namespace

void Legs::Pool(const char* name, Category cat, sim::FairSharePool& pool, Bytes bytes) {
  Add(name, cat, pool.SoloTime(bytes), bytes, sim::Transfer(pool, bytes));
}

sim::Task Legs::Tag(const char* name, Category cat, Time ideal, Bytes bytes,
                    sim::Task task) const {
  if (!traced_) return task;
  return Tagged(*engine_, category_, name, track_, bytes,
                {.cat = cat, .parent = parent_, .ideal = ideal}, std::move(task));
}

sim::Task Legs::Join() { return sim::WhenAll(*engine_, std::exchange(legs_, {})); }

}  // namespace uvs::obs
