#ifndef PPM_PARALLEL_MATERIALIZE_H_
#define PPM_PARALLEL_MATERIALIZE_H_

// `MaterializePrefix` lives with the segment-scan driver that uses it; this
// header keeps the old include path working.
#include "parallel/segment_scan.h"

#endif  // PPM_PARALLEL_MATERIALIZE_H_
