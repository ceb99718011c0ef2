// Umbrella header for the discrete-event simulation kernel.
#pragma once

#include "src/sim/engine.hpp"    // IWYU pragma: export
#include "src/sim/event.hpp"     // IWYU pragma: export
#include "src/sim/fair_share.hpp"  // IWYU pragma: export
#include "src/sim/sync.hpp"      // IWYU pragma: export
#include "src/sim/task.hpp"      // IWYU pragma: export
