// Exists only for perfbench's parallel probe, which includes this path;
// goes when a benchmark change drops that probe. Exploration is serial:
// see analysis/explore.h.
#pragma once

#include "analysis/explore.h"
