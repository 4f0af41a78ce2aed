// Umbrella header for malnet::testkit — the in-tree deterministic
// property-testing and structure-aware fuzzing library (DESIGN.md §9).
//
//   gen.hpp     seeded Gen<T> combinators over util::Rng
//   shrink.hpp  Shrink<T> counterexample minimization
//   check.hpp   check(gen, prop) runner + failure reporting
//   mutate.hpp  structure-aware wire-format mutator
//   corpus.hpp  committed seed-corpus access (tests/corpus/)
//   scratch.hpp per-test private scratch directories
#pragma once

#include "testkit/check.hpp"    // IWYU pragma: export
#include "testkit/corpus.hpp"   // IWYU pragma: export
#include "testkit/gen.hpp"      // IWYU pragma: export
#include "testkit/mutate.hpp"   // IWYU pragma: export
#include "testkit/scratch.hpp"  // IWYU pragma: export
#include "testkit/shrink.hpp"   // IWYU pragma: export
