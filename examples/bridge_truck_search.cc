// IoT scenario from the paper's introduction: a strain meter in a bridge
// shows a characteristic pulse when a vehicle crosses; the pulse height
// scales with vehicle weight. Given one example crossing of a container
// truck, find other crossings of trucks in a similar weight class by
// constraining the amplitude scaling (α) and mean (β) — a cNSM query that
// plain NSM cannot express (it would also return cars and motorbikes,
// whose normalized pulses look identical). Exits 1 unless the constrained
// query matches trucks only and the unconstrained one lighter vehicles too.
//
//   ./bridge_truck_search
#include <cmath>
#include <cstdio>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "index/index_builder.h"
#include "match/kv_match.h"
#include "ts/generator.h"

using namespace kvmatch;

int main() {
  const size_t n = 2'000'000;
  Rng rng(42);

  // ---- Strain record: baseline with thermal drift + crossings of three
  // vehicle classes (pulse height ~ weight). ----
  const size_t pulse_len = 256;
  std::vector<double> strain;
  strain.reserve(n);
  double thermal = 100.0;
  while (strain.size() < n) {
    thermal += rng.Gaussian(0.0, 0.002);
    strain.push_back(thermal + rng.Gaussian(0.0, 0.05));
  }
  struct Crossing {
    size_t offset;
    int klass;  // 0 = car, 1 = van, 2 = container truck
  };
  const double kHeights[] = {0.8, 3.0, 12.0};
  const char* kNames[] = {"car  ", "van  ", "truck"};
  std::vector<Crossing> crossings;
  size_t cursor = 5'000;
  while (cursor + pulse_len + 5'000 < n) {
    const int klass = static_cast<int>(rng.UniformInt(0, 2));
    const double height = kHeights[klass] * rng.Uniform(0.85, 1.15);
    const auto pulse = StrainPulse(pulse_len, 0.0, height);
    for (size_t i = 0; i < pulse_len; ++i) strain[cursor + i] += pulse[i];
    crossings.push_back({cursor, klass});
    cursor += pulse_len +
              static_cast<size_t>(rng.UniformInt(2'000, 10'000));
  }
  const TimeSeries x{std::move(strain)};
  const PrefixStats prefix(x);

  size_t trucks = 0;
  for (const auto& c : crossings) trucks += (c.klass == 2);
  std::printf("strain record: %zu samples, %zu crossings (%zu trucks)\n",
              x.size(), crossings.size(), trucks);

  // ---- Query: one truck crossing taken from the data. ----
  size_t truck_off = 0;
  for (const auto& c : crossings) {
    if (c.klass == 2) {
      truck_off = c.offset;
      break;
    }
  }
  const auto q = ExtractQuery(x, truck_off, pulse_len, 0.0, &rng);

  const KvIndex index = BuildKvIndex(x, {.window = 32, .width = 0.1});
  const KvMatcher matcher(x, prefix, index);

  // cNSM-ED: same shape, σ within 1.4x (weight class), mean within 2
  // (thermal drift tolerance). For contrast, an unconstrained variant.
  QueryParams constrained{QueryType::kCnsmEd, 4.0, 1.4, 2.0, 0};
  QueryParams unconstrained{QueryType::kCnsmEd, 4.0, 1000.0, 1000.0, 0};

  bool ok = true;
  for (const auto& [label, params, trucks_only] :
       {std::tuple{"cNSM (truck weight class)", constrained, true},
        std::tuple{"NSM-like (no constraints) ", unconstrained, false}}) {
    MatchStats stats;
    auto results = matcher.Match(q, params, &stats);
    if (!results.ok()) {
      std::fprintf(stderr, "match failed: %s\n",
                   results.status().ToString().c_str());
      return 1;
    }
    // Count hits per class (a hit covers a crossing's pulse).
    size_t hits[3] = {0, 0, 0};
    for (const auto& c : crossings) {
      for (const auto& m : *results) {
        if (m.offset + pulse_len > c.offset + 20 &&
            m.offset + 20 < c.offset + pulse_len) {
          ++hits[c.klass];
          break;
        }
      }
    }
    std::printf("\n%s: %zu matches, %llu candidates verified\n", label,
                results->size(),
                static_cast<unsigned long long>(stats.candidate_positions));
    for (int k = 0; k < 3; ++k) {
      std::printf("    %s crossings matched: %zu\n", kNames[k], hits[k]);
    }
    ok &= hits[2] > 0 && (hits[0] + hits[1] == 0) == trucks_only;
  }
  std::printf("\nThe α/β knobs turn 'same shape' into 'same shape AND same "
              "weight class'.\n");
  return ok ? 0 : 1;
}
