// Multi-dimensional resource vectors (CPU cores, memory).
//
// The paper's scheduler "tracks the utilization of various resources
// including CPU, memory and storage" (§2.1). Two dimensions are enough to
// exercise the multi-resource fit logic; power is deliberately NOT a resource
// here — that is the whole point of the paper's design.

#ifndef SRC_CLUSTER_RESOURCES_H_
#define SRC_CLUSTER_RESOURCES_H_

namespace ampere {

struct Resources {
  double cpu_cores = 0.0;
  double memory_gb = 0.0;

  constexpr Resources operator+(const Resources& o) const {
    return {cpu_cores + o.cpu_cores, memory_gb + o.memory_gb};
  }
  constexpr Resources operator-(const Resources& o) const {
    return {cpu_cores - o.cpu_cores, memory_gb - o.memory_gb};
  }
  constexpr Resources& operator+=(const Resources& o) {
    cpu_cores += o.cpu_cores;
    memory_gb += o.memory_gb;
    return *this;
  }
  constexpr Resources& operator-=(const Resources& o) {
    cpu_cores -= o.cpu_cores;
    memory_gb -= o.memory_gb;
    return *this;
  }

  // True if a demand of `o` fits in this remaining capacity.
  constexpr bool Fits(const Resources& o) const {
    return o.cpu_cores <= cpu_cores + kEpsilon &&
           o.memory_gb <= memory_gb + kEpsilon;
  }

  constexpr bool operator==(const Resources&) const = default;

  constexpr bool NonNegative() const {
    return cpu_cores >= -kEpsilon && memory_gb >= -kEpsilon;
  }

 private:
  static constexpr double kEpsilon = 1e-9;
};

}  // namespace ampere

#endif  // SRC_CLUSTER_RESOURCES_H_
