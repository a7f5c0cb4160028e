#ifndef SMARTMETER_SIMD_SIMD_ARCH_H_
#define SMARTMETER_SIMD_SIMD_ARCH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "simd/simd.h"

// Build-level gates for the architecture backends. SM_DISABLE_SIMD (a
// CMake option) strips the vector translation units entirely; the
// dispatch switches in simd.cc then only see the scalar kernels.

#if !defined(SM_DISABLE_SIMD) && (defined(__x86_64__) || defined(__i386__))
#define SM_SIMD_X86 1
#else
#define SM_SIMD_X86 0
#endif

#if !defined(SM_DISABLE_SIMD) && defined(__aarch64__)
#define SM_SIMD_NEON 1
#else
#define SM_SIMD_NEON 0
#endif

namespace smartmeter::simd::arch {

#if SM_SIMD_X86
double DotAvx2(const double* x, const double* y, size_t n);
void DotBlockAvx2(const double* const* xs, size_t m, const double* const* ys,
                  size_t n, size_t length, double* out);
void MinMaxAvx2(const double* values, size_t n, double* min, double* max);
void HistogramBinAvx2(const double* values, size_t n, double min,
                      double width, int64_t* counts, size_t num_buckets);
void BinIndicesInt32Avx2(const double* values, size_t n, double divisor,
                         int32_t* out);
void CountBandsAvx2(const double* values, const int32_t* bins, size_t n,
                    int32_t base, const double* lo_table,
                    const double* hi_table, size_t table_size,
                    size_t* lo_count, size_t* hi_count);
void SelectBandsAvx2(const double* values, const int32_t* bins, size_t n,
                     int32_t base, const double* lo_table,
                     const double* hi_table, size_t table_size,
                     std::vector<int32_t>* lo_indices,
                     std::vector<int32_t>* hi_indices);
void AddResidualAvx2(double* acc, const double* c, const double* t,
                     const double* beta, size_t n);
bool ThreeSegmentScanAvx2(const SegmentPrefixSums& prefix, size_t i,
                          size_t j_begin, size_t j_end, double sse_left,
                          std::span<const double> right_sse,
                          double* best_sse, size_t* best_j);
size_t FindByteAvx2(const char* data, size_t size, size_t pos, char needle);
size_t FindEitherByteAvx2(const char* data, size_t size, size_t pos, char a,
                          char b);
size_t CountByteAvx2(const char* data, size_t size, char needle);
#endif  // SM_SIMD_X86

#if SM_SIMD_NEON
double DotNeon(const double* x, const double* y, size_t n);
void MinMaxNeon(const double* values, size_t n, double* min, double* max);
void HistogramBinNeon(const double* values, size_t n, double min,
                      double width, int64_t* counts, size_t num_buckets);
void AddResidualNeon(double* acc, const double* c, const double* t,
                     const double* beta, size_t n);
bool ThreeSegmentScanNeon(const SegmentPrefixSums& prefix, size_t i,
                          size_t j_begin, size_t j_end, double sse_left,
                          std::span<const double> right_sse,
                          double* best_sse, size_t* best_j);
size_t FindByteNeon(const char* data, size_t size, size_t pos, char needle);
size_t FindEitherByteNeon(const char* data, size_t size, size_t pos, char a,
                          char b);
size_t CountByteNeon(const char* data, size_t size, char needle);
#endif  // SM_SIMD_NEON

}  // namespace smartmeter::simd::arch

#endif  // SMARTMETER_SIMD_SIMD_ARCH_H_
