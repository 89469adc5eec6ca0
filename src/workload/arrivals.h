// Open-loop arrival generation: an inhomogeneous Poisson process shaped by
// a diurnal rate curve.
//
// The soak schedules queries *open-loop*: arrival instants are drawn ahead
// of time from the process below and honored on the wall clock regardless
// of how fast the engine answers — under overload the backlog (and the
// latency SLO) grows, exactly like production traffic. The curve is
// normalized so its integral over the run equals the requested expected
// total, which is also what the property tests pin down.
#ifndef RMI_WORKLOAD_ARRIVALS_H_
#define RMI_WORKLOAD_ARRIVALS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rmi::workload {

/// Relative load level over one virtual day mapped onto [0, period_s):
/// level(t) = 1 + amplitude * sin(2*pi * t / period_s + phase_rad). With
/// |amplitude| < 1 the level is strictly positive; the default phase puts
/// the trough at t = 0 (a soak starts in the quiet hours and ramps through
/// the midday peak).
struct DiurnalCurve {
  double period_s = 300.0;
  double amplitude = 0.6;
  double phase_rad = -1.5707963267948966;  // -pi/2

  /// The level at virtual time t. PoissonArrivals' thinning step inlines
  /// it, so only the tests that check the curve link it out of line.
  double Level(double t) const;
  /// Exact closed-form integral of Level over [t0, t1].
  double Integral(double t0, double t1) const;
};

struct ArrivalScheduleOptions {
  /// Virtual timeline length, seconds; arrivals land in [0, duration_s).
  double duration_s = 300.0;
  /// Expected arrival count: the rate is expected_total * Level(t) /
  /// Integral(0, duration), so the process integrates to exactly this.
  /// The realized count is Poisson-distributed around it.
  double expected_total = 100000.0;
  DiurnalCurve curve;
  uint64_t seed = 11;
};

/// Arrival instants of the inhomogeneous Poisson process, ascending.
/// Generated by thinning a homogeneous process at the peak rate —
/// deterministic per (options, seed), bit-reproducible across runs.
std::vector<double> PoissonArrivals(const ArrivalScheduleOptions& options);

}  // namespace rmi::workload

#endif  // RMI_WORKLOAD_ARRIVALS_H_
