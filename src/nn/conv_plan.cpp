#include "nn/conv_plan.h"

namespace mpipu {

PreparedFp16 prepare_fp16_planes(std::span<const double> values) {
  PreparedFp16 planes;
  planes.resize(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    planes.set(i, Fp16::from_double(values[i]));
  }
  return planes;
}

PreparedInt prepare_int_planes(std::span<const double> values,
                               const QuantParams& params, bool with_digits) {
  PreparedInt planes;
  planes.assign(quantize(values, params), params.bits, params.is_unsigned,
                with_digits);
  return planes;
}

ConvPlan<PreparedFp16> build_fp16_plan(int input_c, int input_h, int input_w,
                                       const FilterBank& f,
                                       const ConvSpec& spec, ThreadPool& pool) {
  ConvPlan<PreparedFp16> plan;
  plan.pack(input_c, input_h, input_w, f, spec, PreparedFp16{}, pool,
            [&f](PreparedFp16& dst, std::span<const int32_t> rel, int64_t base,
                 size_t dst_offset) {
              for (size_t t = 0; t < rel.size(); ++t) {
                dst.set(dst_offset + t,
                        Fp16::from_double(
                            f.data[static_cast<size_t>(base + rel[t])]));
              }
            });
  return plan;
}

ConvPlan<PreparedInt> build_int_plan(int input_c, int input_h, int input_w,
                                     const FilterBank& f, const ConvSpec& spec,
                                     const QuantParams& qw, bool with_digits,
                                     ThreadPool& pool) {
  PreparedInt layout;
  layout.configure(qw.bits, qw.is_unsigned, 0, with_digits);
  ConvPlan<PreparedInt> plan;
  plan.pack(input_c, input_h, input_w, f, spec, layout, pool,
            [&f, &qw](PreparedInt& dst, std::span<const int32_t> rel,
                      int64_t base, size_t dst_offset) {
              for (size_t t = 0; t < rel.size(); ++t) {
                dst.set(dst_offset + t,
                        quantize_value(
                            f.data[static_cast<size_t>(base + rel[t])], qw));
              }
            });
  return plan;
}

Tensor execute_fp16_plan(const ConvPlan<PreparedFp16>& plan,
                         const PreparedFp16& in_planes, ThreadPool& pool,
                         std::span<const std::unique_ptr<Datapath>> units,
                         int n_inputs, AccumKind accum) {
  const bool to_fp16 = accum == AccumKind::kFp16;
  return run_conv_plan<PreparedFp16>(
      plan, in_planes, pool, units, n_inputs,
      [](Datapath& dp, const PreparedFp16View& a, const PreparedFp16View& b) {
        dp.fp16_accumulate_prepared(a, b);
      },
      [to_fp16](Datapath& dp) {
        return to_fp16 ? dp.read_fp16().to_double() : dp.read_fp32().to_double();
      });
}

Tensor execute_int_plan(const ConvPlan<PreparedInt>& plan,
                        const PreparedInt& in_planes, ThreadPool& pool,
                        std::span<const std::unique_ptr<Datapath>> units,
                        int n_inputs, int a_bits, int w_bits,
                        const QuantParams& qa, const QuantParams& qw) {
  return run_conv_plan<PreparedInt>(
      plan, in_planes, pool, units, n_inputs,
      [a_bits, w_bits](Datapath& dp, const PreparedIntView& a,
                       const PreparedIntView& b) {
        dp.int_accumulate_prepared(a, b, a_bits, w_bits);
      },
      [&qa, &qw](Datapath& dp) {
        return dequantize_accumulator(dp.read_int(), qa, qw);
      });
}

}  // namespace mpipu
